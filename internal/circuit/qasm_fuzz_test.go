package circuit

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseQASM feeds arbitrary text to ParseQASM, which parses untrusted
// input: the raw form of POST /v1/route passes the request's qasm field
// straight to it. ParseQASM must never panic, and every circuit it
// accepts must survive WriteQASM → ParseQASM unchanged, with Param
// compared bitwise so NaN and signed-zero angles count.
//
//	go test ./internal/circuit -run '^$' -fuzz '^FuzzParseQASM$' -fuzztime 30s
func FuzzParseQASM(f *testing.F) {
	f.Add(qasmToleranceSrc)
	f.Add(QASMString(qasmRoundTripCircuit()))
	for _, src := range qasmRejects {
		f.Add(src)
	}
	// Negating a NaN sets a sign bit that text cannot carry.
	f.Add("qreg q[1]; rz(-nan) q[0];")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM(strings.NewReader(src))
		if err != nil {
			return
		}
		text := QASMString(c)
		back, err := ParseQASM(strings.NewReader(text))
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\n%s", err, text)
		}
		if back.NumQubits != c.NumQubits || len(back.Gates) != len(c.Gates) {
			t.Fatalf("round trip gives %d qubits/%d gates, want %d/%d",
				back.NumQubits, len(back.Gates), c.NumQubits, len(c.Gates))
		}
		for i, g := range c.Gates {
			h := back.Gates[i]
			if h.Kind != g.Kind || h.Q0 != g.Q0 || h.Q1 != g.Q1 || math.Float64bits(h.Param) != math.Float64bits(g.Param) {
				t.Fatalf("gate %d: %v (param bits %#x) round-trips as %v (param bits %#x)",
					i, g, math.Float64bits(g.Param), h, math.Float64bits(h.Param))
			}
		}
	})
}
