package api

import (
	"reflect"
	"testing"

	"bond"
)

// TestEveryQuerySpecFieldIsReachable holds bond.QuerySpec to what a
// request can set: every field but the library-only ones must be set
// non-zero by the lowering of some wire query, so a setting no request
// can reach fails here instead of growing the configuration space unseen.
func TestEveryQuerySpecFieldIsReachable(t *testing.T) {
	// Exclude is a bitmap over the caller's own ids; the server builds
	// no request-side exclusion.
	libraryOnly := map[string]bool{"Exclude": true}
	id := 0
	reach := map[string]QuerySpec{
		"Query":     {Query: []float64{0.5, 0.5}, K: 1},
		"K":         {ID: &id, K: 3},
		"Criterion": {ID: &id, K: 1, Criterion: "Eq"},
		"Order":     {ID: &id, K: 1, Order: "asc"},
		"Step":      {ID: &id, K: 1, Step: 4},
		"Weights":   {ID: &id, K: 1, Weights: []float64{1, 2}},
		"Dims":      {ID: &id, K: 1, Dims: []int{1}},
		"Strategy":  {ID: &id, K: 1, Strategy: "bond"},
		"Tolerance": {ID: &id, K: 1, Tolerance: 0.1},
		"Deadline":  {ID: &id, K: 1, TimeoutMs: 50},
	}
	vector := func(int) ([]float64, error) { return []float64{0.25, 0.75}, nil }
	fields := reflect.TypeOf(bond.QuerySpec{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		if libraryOnly[name] {
			continue
		}
		wq, ok := reach[name]
		if !ok {
			t.Errorf("QuerySpec.%s: no wire query sets it", name)
			continue
		}
		spec, err := ToSpec(&wq, vector)
		if err != nil {
			t.Errorf("QuerySpec.%s: %v", name, err)
			continue
		}
		if reflect.ValueOf(spec).Field(i).IsZero() {
			t.Errorf("QuerySpec.%s: %+v lowers to the zero value", name, wq)
		}
	}
}
