package suite

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzManifestHash decodes arbitrary bytes the way POST /v1/suites does
// (unknown fields rejected, then schema_version and generator defaulted)
// and checks every manifest that validates: its hash is a well-formed
// address, the hash survives a JSON re-encoding and the re-decoded
// manifest still validates, and reversing and duplicating both grids
// leaves the hash unchanged.
//
//	go test ./internal/suite -run '^$' -fuzz '^FuzzManifestHash$' -fuzztime 15s
func FuzzManifestHash(f *testing.F) {
	tiny, err := json.Marshal(tinyManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny)
	// The depth manifest the serve smoke test posts.
	f.Add([]byte(`{"generator":"queko-depth/1","device":"grid3x3","depths":[3],"circuits_per_count":1,"target_two_qubit_gates":10,"seed":9}`))
	// A swap manifest with an unsorted, duplicated grid.
	f.Add([]byte(`{"device":"aspen4","swap_counts":[5,1,5,3],"circuits_per_count":2,"target_two_qubit_gates":30,"seed":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var m Manifest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			return
		}
		if m.SchemaVersion == 0 {
			m.SchemaVersion = SchemaVersion
		}
		if m.Generator == "" {
			m.Generator = GeneratorID
		}
		if m.Validate() != nil {
			return
		}
		hash := m.Hash()
		if !ValidHash(hash) {
			t.Fatalf("Hash() = %q is not a valid address", hash)
		}

		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Manifest
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-decoded manifest %s no longer validates: %v", enc, err)
		}
		if got := back.Hash(); got != hash {
			t.Fatalf("JSON round trip changed the hash: %s -> %s (%s)", hash, got, enc)
		}

		shuffled := m
		shuffled.SwapCounts = reverseTwice(m.SwapCounts)
		shuffled.Depths = reverseTwice(m.Depths)
		if got := shuffled.Hash(); got != hash {
			t.Fatalf("reversed, duplicated grids changed the hash: %s -> %s (swaps %v, depths %v)",
				hash, got, shuffled.SwapCounts, shuffled.Depths)
		}
	})
}

// reverseTwice returns grid reversed and then repeated once, so every
// value appears twice and out of order; nil stays nil.
func reverseTwice(grid []int) []int {
	if grid == nil {
		return nil
	}
	r := slices.Clone(grid)
	slices.Reverse(r)
	return append(r, r...)
}
