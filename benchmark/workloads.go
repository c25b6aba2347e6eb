package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"bond/internal/dataset"
)

// collection is the name of the collection every workload queries.
const collection = "bench"

// Shape constants shared by all workloads. They are constants, not
// flags: a number that differs between two runs cannot be compared.
const (
	numQueries  = 512 // distinct query vectors, sampled from the data
	topK        = 10
	setupBatch  = 256 // vectors per setup ingest request
	ingestBatch = 64  // vectors per measured ingest request
	batchSpecs  = 32  // query specs per batch request
	writerAdds  = 16  // vectors per paced-writer cycle, and as many single deletes (mixed_rw)
	writerHz    = 10  // paced-writer cycles per second (mixed_rw)
	maintEvery  = 5   // writer cycles between RunMaintenance calls: two per second when paced
	readerHz    = 100 // paced-reader queries per second (mixed_rw ingest rounds)
	// Thresholds low enough that every maintenance call on mixed_rw both
	// compacts and checkpoints: background work completes a cycle per
	// round instead of once, somewhere, per run.
	compactRatio = 0.002
	walMaxBytes  = 16 << 10
)

// workload is one traffic shape: a dataset, a criterion, and a topology.
type workload struct {
	name string
	// why is the one-line reason the workload exists; it is copied into
	// BENCHMARK.json.
	why       string
	gen       string // "uniform", "clustered" or "corel"
	n, dims   int
	segSize   int
	criterion string // wire spelling: "eq" or "hq"
	shards    int    // 0 = one node; otherwise a coordinator over this many
	mixed     bool   // reads and writes hit the same collection at once
	openRate  float64
}

var workloads = []workload{
	{
		name: "scan_uniform",
		why:  "pruning-hostile uniform data: every query streams ~1M cells, so planner and kernels dominate and HTTP/JSON work should not show",
		gen:  "uniform", n: 16000, dims: 64, segSize: 1000, criterion: "eq", openRate: 300,
	},
	{
		name: "skip_clustered",
		why:  "cluster-contiguous segments: synopses skip ~95 of 96 segments, so api, server and planner bookkeeping dominate and kernels are almost nothing",
		gen:  "clustered", n: 24000, dims: 64, segSize: 250, criterion: "eq", openRate: 2000,
	},
	{
		name: "mixed_rw",
		why:  "Hq on skewed histograms with a paced writer (ingest, delete, compaction, checkpoint) on the queried collection: read/write trade-offs show only here",
		gen:  "corel", n: 16000, dims: 32, segSize: 1000, criterion: "hq", mixed: true, openRate: 600,
	},
	{
		name: "sharded_fanout",
		why:  "two shards behind a coordinator: two HTTP hops, two JSON codecs and an exact merge per request, so shard, api and topk dominate the engine",
		gen:  "corel", n: 16000, dims: 32, segSize: 1000, criterion: "hq", shards: 2, openRate: 1000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the dataset for smoke tests; scale 1 is the benchmark.
// Segment size shrinks with it so the segment count — what skipping and
// per-segment bookkeeping depend on — stays the same.
func (w workload) scaled(scale float64) workload {
	if scale >= 1 {
		return w
	}
	segs := w.n / w.segSize
	w.segSize = max(int(math.Round(float64(w.segSize)*scale)), 8)
	w.n = segs * w.segSize
	return w
}

// inputs is everything a run feeds the system, generated from the seed
// alone.
type inputs struct {
	data    [][]float64 // the queried collection, in ingest order
	queries [][]float64 // numQueries vectors sampled from data
	extra   [][]float64 // vectors the mixed_rw writer adds, same distribution
}

func (w workload) generate(seed int64) inputs {
	var in inputs
	switch w.gen {
	case "uniform":
		in.data = dataset.Uniform(w.n, w.dims, seed)
	case "clustered":
		in.data = clusterContiguous(w.n, w.dims, w.segSize, seed)
	case "corel":
		in.data = dataset.CorelLike(w.n, w.dims, seed)
		if w.mixed {
			in.extra = dataset.CorelLike(w.n, w.dims, seed+2)
		}
	default:
		panic("benchmark: unknown generator " + w.gen)
	}
	in.queries, _ = dataset.SampleQueries(in.data, numQueries, seed+1)
	return in
}

// hash fingerprints the generated inputs, so two runs can be shown to
// have been fed the same bytes.
func (in inputs) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, set := range [][][]float64{in.data, in.queries, in.extra} {
		for _, v := range set {
			for _, x := range v {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// clusterContiguous generates n vectors as consecutive blocks of
// blockLen, each block a tight box around its own random centre — the
// layout on which per-segment synopses are disjoint and segment skipping
// fires (internal/dataset.Clustered shuffles clusters, which defeats it).
func clusterContiguous(n, dims, blockLen int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	center := make([]float64, dims)
	for i := range out {
		if i%blockLen == 0 {
			for d := range center {
				center[d] = rng.Float64()
			}
		}
		v := make([]float64, dims)
		for d := range v {
			v[d] = min(max(center[d]+0.03*(rng.Float64()-0.5), 0), 1)
		}
		out[i] = v
	}
	return out
}
