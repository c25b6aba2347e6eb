// Command bondgen generates a synthetic feature collection and writes it
// as a durable collection directory that cmd/bondquery, cmd/bondd and
// the library's OpenDurable open.
//
// Usage:
//
//	bondgen -kind corel -n 10000 -dims 166 -out corel.bond
//	bondgen -kind clustered -n 100000 -dims 128 -theta 1.0 -out skew1.bond
//	bondgen -kind uniform -n 50000 -dims 64 -out uniform.bond
//	bondgen -kind corel -n 10000 -dims 166 -segsize 2048 -out corel.bond
//
// -segsize aligns segment boundaries with a known data layout; -normalize
// scales every vector to sum 1 (enables the stricter Eq bound). -out must
// not exist yet.
package main

import (
	"flag"
	"fmt"
	"os"

	"bond"
	"bond/internal/dataset"
)

func main() {
	kind := flag.String("kind", "corel", "data kind: corel, clustered, uniform")
	n := flag.Int("n", 10000, "number of vectors")
	dims := flag.Int("dims", 166, "dimensionality")
	theta := flag.Float64("theta", 1.0, "cluster-centre Zipf skew (clustered only)")
	clusters := flag.Int("clusters", 1000, "number of clusters (clustered only)")
	noise := flag.Float64("noise", 0.05, "noise fraction (clustered only)")
	sigma := flag.Float64("sigma", 0.025, "cluster spread (clustered only)")
	normalize := flag.Bool("normalize", false, "normalize every vector to sum 1")
	seed := flag.Int64("seed", 42, "generator seed")
	segsize := flag.Int("segsize", 0, "segment seal threshold (0 = default)")
	out := flag.String("out", "", "output directory (required, must not exist)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "bondgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if _, err := os.Lstat(*out); err == nil {
		fatal(fmt.Errorf("%s already exists", *out))
	}

	var vectors [][]float64
	switch *kind {
	case "corel":
		vectors = dataset.CorelLike(*n, *dims, *seed)
	case "clustered":
		cfg := dataset.ClusteredConfig{
			N: *n, Dims: *dims, Clusters: *clusters, Theta: *theta,
			NoiseFrac: *noise, Sigma: *sigma, Seed: *seed,
		}
		vectors = dataset.Clustered(cfg)
	case "uniform":
		vectors = dataset.Uniform(*n, *dims, *seed)
	default:
		fmt.Fprintf(os.Stderr, "bondgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *normalize {
		dataset.NormalizeAll(vectors)
	}

	segments, err := write(*out, vectors, *segsize)
	if err != nil {
		_ = os.RemoveAll(*out) // leave no half-written collection; err says why
		fatal(err)
	}
	fmt.Printf("wrote %d × %d %s collection (%d segments) to %s\n",
		*n, *dims, *kind, segments, *out)
}

// write creates the durable collection at out holding vectors, sealing
// the partial tail segment as a bulk load does, and checkpoints it so the
// directory carries no log to replay. It returns the segment count.
func write(out string, vectors [][]float64, segsize int) (int, error) {
	col, err := bond.OpenDurable(out, bond.DurableOptions{Dims: len(vectors[0]), SegmentSize: segsize})
	if err != nil {
		return 0, err
	}
	_, err = col.AddBatchDurable(vectors)
	if err == nil {
		err = col.SealActiveDurable()
	}
	if err == nil {
		err = col.Checkpoint()
	}
	segments := col.NumSegments()
	if cerr := col.Close(); err == nil {
		err = cerr
	}
	return segments, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bondgen:", err)
	os.Exit(1)
}
