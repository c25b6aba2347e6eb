package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"bond"
)

// Op is what a route under /collections/{name} is about to do, as
// Backend.Admit sees it.
type Op uint8

const (
	OpRead      Op = iota // describe, vector readback, query, batch query
	OpWrite               // ingest, vector delete
	OpDefine              // create, drop: the collection need not exist
	OpExplain             // EXPLAIN, GET or POST
	OpRecluster           // manual re-clustering
)

// Backend serves the bondd HTTP API. Each method takes the decoded,
// shape-checked request and returns the answer or an error; a
// *StatusError in the error's chain sets the status, code, retry hint and
// missed shards the client sees, and any other error is a 500.
type Backend interface {
	// Admit runs first on every route under /collections/{name}, before
	// the name is checked or the body read, so that what a backend refuses
	// without looking at the request — a write on a read-only replica, a
	// collection it knows is missing, a route it does not serve — wins over
	// anything the request holds.
	Admit(op Op, name string) error

	Ready() (any, error)
	Stats() any
	List(ctx context.Context) ([]string, error)
	Create(ctx context.Context, name string, req *CreateRequest) (*CreateResponse, error)
	Drop(ctx context.Context, name string) error
	Describe(ctx context.Context, name string) (any, error)
	// Ingest gets exactly one of a request's vector or vectors.
	Ingest(ctx context.Context, name string, vectors [][]float64) (*IngestResponse, error)
	Vector(ctx context.Context, name string, id int) (*VectorResponse, error)
	DeleteVector(ctx context.Context, name string, id int) error
	Query(ctx context.Context, name string, spec *QuerySpec) (*QueryResponse, error)
	// QueryBatch gets at least one spec.
	QueryBatch(ctx context.Context, name string, specs []QuerySpec) (*BatchResponse, error)
	Explain(ctx context.Context, name string, spec *QuerySpec) (*ExplainResponse, error)
	Recluster(ctx context.Context, name string, req *ReclusterRequest) (*ReclusterResponse, error)
}

// StatusError carries how the API answers an error: its HTTP status,
// code, retry hint and — on a coordinator — the shards it is about. The
// body's text is the whole error's, so context wrapped around a
// StatusError (fmt.Errorf with %w) reaches the client. The coordinator's
// shard client reads a shard's non-2xx answer back into one.
type StatusError struct {
	Status       int
	Code         string
	Msg          string
	RetryAfterMs int
	MissedShards []int
}

func (e *StatusError) Error() string { return e.Msg }

// Errorf returns a StatusError with the given status, no code, and a
// formatted message.
func Errorf(status int, format string, args ...any) error {
	return &StatusError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// WithStatus returns err's text as a StatusError with the given status.
func WithStatus(status int, err error) error {
	return &StatusError{Status: status, Msg: err.Error()}
}

// WriteError answers err with its text and the status, code, retry hint
// (mirrored in a Retry-After header) and missed shards of the StatusError
// in its chain, or as a 500 when there is none. It returns the status.
func WriteError(w http.ResponseWriter, err error) int {
	se := &StatusError{Status: http.StatusInternalServerError}
	errors.As(err, &se)
	if se.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa((se.RetryAfterMs+999)/1000))
	}
	WriteJSON(w, se.Status, Error{Error: err.Error(), Code: se.Code, RetryAfterMs: se.RetryAfterMs, MissedShards: se.MissedShards})
	return se.Status
}

// The collection errors both backends answer with, in the words the
// single node has always used.
var (
	ErrBadName  = errors.New("server: invalid collection name (want [a-zA-Z0-9][a-zA-Z0-9_-]{0,63})")
	ErrNotFound = errors.New("server: collection not found")
)

// ValidName reports whether name is a collection name: one safe path
// segment of at most 64 bytes, [a-zA-Z0-9][a-zA-Z0-9_-]*, with no
// separator, dot or anything else a filesystem or URL router could
// reinterpret.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case (c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// ToSpec lowers a wire spec onto a bond.QuerySpec, checking it as the
// single node always has: query xor id first, then the example vector
// (vector resolves an id; its error is returned as is), then criterion,
// order and strategy. Every error of its own is a 400.
func ToSpec(wq *QuerySpec, vector func(id int) ([]float64, error)) (bond.QuerySpec, error) {
	spec := bond.QuerySpec{
		K:         wq.K,
		Step:      wq.Step,
		Weights:   wq.Weights,
		Dims:      wq.Dims,
		Tolerance: wq.Tolerance,
	}
	switch {
	case len(wq.Query) > 0 && wq.ID != nil:
		return spec, Errorf(http.StatusBadRequest, "set either query or id, not both")
	case len(wq.Query) > 0:
		spec.Query = wq.Query
	case wq.ID != nil:
		q, err := vector(*wq.ID)
		if err != nil {
			return spec, err
		}
		spec.Query = q
	default:
		return spec, Errorf(http.StatusBadRequest, "query vector (or id) is required")
	}
	var err error
	if spec.Criterion, err = bond.ParseCriterion(wq.Criterion); err != nil {
		return spec, WithStatus(http.StatusBadRequest, err)
	}
	if spec.Order, err = bond.ParseOrder(wq.Order); err != nil {
		return spec, WithStatus(http.StatusBadRequest, err)
	}
	if spec.Strategy, err = bond.ParseStrategy(wq.Strategy); err != nil {
		return spec, WithStatus(http.StatusBadRequest, err)
	}
	if wq.TimeoutMs > 0 {
		spec.Deadline = time.Now().Add(time.Duration(wq.TimeoutMs) * time.Millisecond)
	}
	return spec, nil
}

// CheckDims checks every vector of an ingest against the collection's
// dims, so that a ragged batch is refused whole before anything is
// written.
func CheckDims(name string, dims int, vectors [][]float64) error {
	for i, v := range vectors {
		if len(v) != dims {
			return Errorf(http.StatusBadRequest, "vector %d has %d dims, collection %q has %d", i, len(v), name, dims)
		}
	}
	return nil
}

// NewMux returns the API's routes over b: the one route table, each route
// checking what the single node always has, in the order it always has.
// Bodies over maxBodyBytes are refused (≤ 0 selects 64 MiB);
// logf, when set, receives one line per 5xx answered and per answer that
// could not be encoded. The caller may mount further routes on the mux.
func NewMux(b Backend, maxBodyBytes int64, logf func(format string, args ...any)) *http.ServeMux {
	if maxBodyBytes <= 0 {
		maxBodyBytes = 64 << 20
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &handlers{b: b, maxBody: maxBodyBytes, logf: logf}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		h.answer(w, http.StatusOK, map[string]string{"status": "ok"}, nil)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		v, err := b.Ready()
		h.answer(w, http.StatusOK, v, err)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		h.answer(w, http.StatusOK, b.Stats(), nil)
	})
	mux.HandleFunc("GET /collections", func(w http.ResponseWriter, r *http.Request) {
		names, err := b.List(r.Context())
		h.answer(w, http.StatusOK, map[string][]string{"collections": names}, err)
	})
	mux.HandleFunc("PUT /collections/{name}", h.create)
	mux.HandleFunc("DELETE /collections/{name}", h.collection(OpDefine, func(_ http.ResponseWriter, r *http.Request, name string) (any, error) {
		return nil, b.Drop(r.Context(), name)
	}))
	mux.HandleFunc("GET /collections/{name}", h.collection(OpRead, func(_ http.ResponseWriter, r *http.Request, name string) (any, error) {
		return b.Describe(r.Context(), name)
	}))
	mux.HandleFunc("POST /collections/{name}/vectors", h.collection(OpWrite, func(w http.ResponseWriter, r *http.Request, name string) (any, error) {
		var req IngestRequest
		if r.Header.Get("Content-Type") == FramesType {
			var err error
			if req.Vectors, err = readVectors(w, r, h.maxBody); err != nil {
				return nil, WithStatus(http.StatusBadRequest, err)
			}
		} else if err := h.decode(w, r, &req); err != nil {
			return nil, err
		}
		vectors := req.Vectors
		switch {
		case len(req.Vector) > 0 && len(req.Vectors) > 0:
			return nil, Errorf(http.StatusBadRequest, "set either vector or vectors, not both")
		case len(req.Vector) > 0:
			vectors = [][]float64{req.Vector}
		case len(req.Vectors) == 0:
			return nil, Errorf(http.StatusBadRequest, "vector or vectors is required")
		}
		return b.Ingest(r.Context(), name, vectors)
	}))
	// The readback clients audit durability with (and the SIGKILL
	// end-to-end test relies on).
	mux.HandleFunc("GET /collections/{name}/vectors/{id}", h.collection(OpRead, func(_ http.ResponseWriter, r *http.Request, name string) (any, error) {
		id, err := pathID(r)
		if err != nil {
			return nil, err
		}
		return b.Vector(r.Context(), name, id)
	}))
	mux.HandleFunc("DELETE /collections/{name}/vectors/{id}", h.collection(OpWrite, func(_ http.ResponseWriter, r *http.Request, name string) (any, error) {
		id, err := pathID(r)
		if err != nil {
			return nil, err
		}
		return nil, b.DeleteVector(r.Context(), name, id)
	}))
	mux.HandleFunc("POST /collections/{name}/query", h.collection(OpRead, func(w http.ResponseWriter, r *http.Request, name string) (any, error) {
		var spec QuerySpec
		if err := h.decode(w, r, &spec); err != nil {
			return nil, err
		}
		return b.Query(r.Context(), name, &spec)
	}))
	mux.HandleFunc("POST /collections/{name}/query/batch", h.collection(OpRead, func(w http.ResponseWriter, r *http.Request, name string) (any, error) {
		var req BatchRequest
		if err := h.decode(w, r, &req); err != nil {
			return nil, err
		}
		if len(req.Queries) == 0 {
			return nil, Errorf(http.StatusBadRequest, "queries is required")
		}
		return b.QueryBatch(r.Context(), name, req.Queries)
	}))
	// EXPLAIN: POST takes the query endpoint's JSON spec, GET
	// query-by-example parameters (?id=17&k=10&criterion=Hq&strategy=auto&
	// order=desc&step=8) for curl-friendly inspection. A GET naming a
	// parameter explainParams does not read, repeating one or giving one
	// that does not unescape is refused before the backend admits the
	// route, so a node and a coordinator answer it alike.
	explain := h.collection(OpExplain, func(w http.ResponseWriter, r *http.Request, name string) (any, error) {
		var spec QuerySpec
		var err error
		if r.Method == http.MethodPost {
			err = h.decode(w, r, &spec)
		} else {
			spec, err = explainParams(r)
		}
		if err != nil {
			return nil, err
		}
		return b.Explain(r.Context(), name, &spec)
	})
	mux.HandleFunc("GET /collections/{name}/explain", func(w http.ResponseWriter, r *http.Request) {
		if err := badParam(r); err != nil {
			h.answer(w, 0, nil, err)
			return
		}
		explain(w, r)
	})
	mux.HandleFunc("POST /collections/{name}/explain", explain)
	// An empty body asks for the defaults.
	mux.HandleFunc("POST /collections/{name}/recluster", h.collection(OpRecluster, func(w http.ResponseWriter, r *http.Request, name string) (any, error) {
		var req ReclusterRequest
		if err := DecodeBody(w, r, h.maxBody, &req); err != nil && !errors.Is(err, io.EOF) {
			return nil, WithStatus(http.StatusBadRequest, err)
		}
		return b.Recluster(r.Context(), name, &req)
	}))
	return mux
}

type handlers struct {
	b       Backend
	maxBody int64
	logf    func(format string, args ...any)
}

// answer sends v with status, or err when it is set.
func (h *handlers) answer(w http.ResponseWriter, status int, v any, err error) {
	switch {
	case err != nil:
		if WriteError(w, err) >= 500 {
			h.logf("%v", err)
		}
	case v == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		if err := WriteJSON(w, status, v); err != nil {
			h.logf("%v", err)
		}
	}
}

// collection is every route under /collections/{name} but create: the
// backend's Admit, then the name rule, then serve, whose answer goes out
// 200 — or 204 when it has none.
func (h *handlers) collection(op Op, serve func(w http.ResponseWriter, r *http.Request, name string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		err := h.b.Admit(op, name)
		if err == nil && !ValidName(name) {
			err = WithStatus(http.StatusBadRequest, ErrBadName)
		}
		var out any
		if err == nil {
			out, err = serve(w, r, name)
		}
		h.answer(w, http.StatusOK, out, err)
	}
}

// create reads its body before it checks the name, so a malformed body
// is reported first, and answers 201 when a collection was made.
func (h *handlers) create(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req CreateRequest
	err := h.b.Admit(OpDefine, name)
	if err == nil {
		err = h.decode(w, r, &req)
	}
	if err == nil && !ValidName(name) {
		err = WithStatus(http.StatusBadRequest, ErrBadName)
	}
	var out *CreateResponse
	if err == nil {
		out, err = h.b.Create(r.Context(), name, &req)
	}
	status := http.StatusOK
	if err == nil && out.Created {
		status = http.StatusCreated
	}
	h.answer(w, status, out, err)
}

func (h *handlers) decode(w http.ResponseWriter, r *http.Request, v any) error {
	if err := DecodeBody(w, r, h.maxBody, v); err != nil {
		return WithStatus(http.StatusBadRequest, err)
	}
	return nil
}

// pathID parses the {id} path segment.
func pathID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, Errorf(http.StatusBadRequest, "bad vector id: %v", err)
	}
	return id, nil
}

// badParam is a 400 naming the first GET parameter, in query-string order,
// that explainParams would misread, as a POST body refuses what it cannot
// read: one the route does not take (a misspelt setting must not answer as
// if it were absent), one whose key or value does not unescape (url.Values
// drops the pair), and a repeat of one already given (url.Values keeps
// only the first).
func badParam(r *http.Request) error {
	var seen [len(explainKeys)]bool
	for raw := range strings.SplitSeq(r.URL.RawQuery, "&") {
		if raw == "" {
			continue
		}
		rawKey, rawValue, _ := strings.Cut(raw, "=")
		key, err := url.QueryUnescape(rawKey)
		if err != nil {
			return Errorf(http.StatusBadRequest, "bad parameter %q: %v", rawKey, err)
		}
		i := slices.Index(explainKeys[:], key)
		if i < 0 {
			return Errorf(http.StatusBadRequest, "unknown parameter %q", key)
		}
		if _, err := url.QueryUnescape(rawValue); err != nil {
			return Errorf(http.StatusBadRequest, "bad parameter %q: %v", key, err)
		}
		if seen[i] {
			return Errorf(http.StatusBadRequest, "repeated parameter %q", key)
		}
		seen[i] = true
	}
	return nil
}

// explainKeys are the GET parameters explainParams reads.
var explainKeys = [...]string{"id", "k", "step", "criterion", "order", "strategy"}

// explainParams lifts GET query parameters into the wire spec.
func explainParams(r *http.Request) (QuerySpec, error) {
	q := r.URL.Query()
	wq := QuerySpec{
		Criterion: q.Get("criterion"),
		Order:     q.Get("order"),
		Strategy:  q.Get("strategy"),
		K:         10,
	}
	v := q.Get("id")
	if v == "" {
		return wq, Errorf(http.StatusBadRequest, "id is required (query-by-example; POST a JSON spec for arbitrary vectors)")
	}
	id, err := strconv.Atoi(v)
	if err != nil {
		return wq, Errorf(http.StatusBadRequest, "bad id: %v", err)
	}
	wq.ID = &id
	for _, p := range []struct {
		name string
		dst  *int
	}{{"k", &wq.K}, {"step", &wq.Step}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return wq, Errorf(http.StatusBadRequest, "bad %s: %v", p.name, err)
			}
			*p.dst = n
		}
	}
	return wq, nil
}
