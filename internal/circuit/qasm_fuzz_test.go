package circuit

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseQASM feeds arbitrary text to ParseQASM, which parses untrusted
// input: the raw form of POST /v1/route passes the request's qasm field
// straight to it. ParseQASM must never panic and must agree with the
// string-level reference parser (qasm_ref_test.go) on every input: the
// same accept/reject decision, the same error text and bit-identical
// gates. Every circuit it accepts must also survive WriteQASM →
// ParseQASM unchanged. Param is compared bitwise so NaN and signed-zero
// angles count.
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
	// strings.ToLower maps U+0130 to 'i' and U+212A to 'k', so these are
	// an include and a barrier; U+017F only case-folds to 's'.
	f.Add("qreg q[2]; İnclude \"x\"; BARRİER q[0]; ſwap q[0],q[1];")
	f.Add("İNCLUDE \"x\";\nqreg q[2];\nbarrİer q[0],q[1];\ncx q[0],q[1];")
	// Every operand is checked before the arity.
	f.Add("qreg q[3]; cx q[0],q[1],q[2];")
	f.Add("qreg q[3]; h q[0],q[1],q[7];")
	f.Add("qreg q[3]; swap q[0], q[1], ;")
	// Signed indices, as strconv.Atoi reads them.
	f.Add("qreg q[+2]; cx q[+0],q[-1]; h q[-0]; x q[+1];")
	f.Add("qreg q[2]; cx q[+0],q[-0];")
	f.Add("qreg q[2]; h q[99999999999999999999];")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM(strings.NewReader(src))
		want, wantErr := refParseQASM(strings.NewReader(src))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ParseQASM error %v, reference error %v", err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseQASM error %q, reference error %q", err, wantErr)
			}
			return
		}
		requireSameGates(t, "reference", want, c)
		text := QASMString(c)
		back, err := ParseQASM(strings.NewReader(text))
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\n%s", err, text)
		}
		requireSameGates(t, "round trip", c, back)
	})
}

// requireSameGates fails unless got has want's register and gates, with
// Param compared bit for bit.
func requireSameGates(t *testing.T, what string, want, got *Circuit) {
	t.Helper()
	if got.NumQubits != want.NumQubits || len(got.Gates) != len(want.Gates) {
		t.Fatalf("%s: %d qubits/%d gates, want %d/%d",
			what, got.NumQubits, len(got.Gates), want.NumQubits, len(want.Gates))
	}
	for i, g := range want.Gates {
		h := got.Gates[i]
		if h.Kind != g.Kind || h.Q0 != g.Q0 || h.Q1 != g.Q1 || math.Float64bits(h.Param) != math.Float64bits(g.Param) {
			t.Fatalf("%s: gate %d is %v (param bits %#x), want %v (param bits %#x)",
				what, i, h, math.Float64bits(h.Param), g, math.Float64bits(g.Param))
		}
	}
}
