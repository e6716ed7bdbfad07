package family

import (
	"testing"

	"repro/internal/arch"
)

// Generation benchmarks for every registered family, at the scale the
// paper-style suites use. CI runs these with -benchtime=1x and gates
// each against its row in BENCH_routers.json at the repository root,
// recorded the same way (see docs/performance.md).

func BenchmarkGenerateQubikosAspen4(b *testing.B) {
	dev := arch.RigettiAspen4()
	for i := 0; i < b.N; i++ {
		if _, err := Qubikos.Generate(dev, Options{
			Optimal: 5, TargetTwoQubitGates: 300, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateQubikosEagle127(b *testing.B) {
	dev := arch.IBMEagle127()
	for i := 0; i < b.N; i++ {
		if _, err := Qubikos.Generate(dev, Options{
			Optimal: 20, TargetTwoQubitGates: 3000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateQuekoDepthAspen4(b *testing.B) {
	dev := arch.RigettiAspen4()
	for i := 0; i < b.N; i++ {
		if _, err := QuekoDepth.Generate(dev, Options{
			Optimal: 20, TargetTwoQubitGates: 300, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateQuekoDepthEagle127(b *testing.B) {
	dev := arch.IBMEagle127()
	for i := 0; i < b.N; i++ {
		if _, err := QuekoDepth.Generate(dev, Options{
			Optimal: 45, TargetTwoQubitGates: 3000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyQubikos measures the swap certificate at paper scale
// (Eagle-127, 3,000 gates, n = 20): the witness check plus the cut
// chain, the per-instance check qubikos-verify -suite runs before SAT.
func BenchmarkCertifyQubikos(b *testing.B) {
	benchCertify(b, Qubikos, Options{Optimal: 20, TargetTwoQubitGates: 3000, Seed: 7})
}

// BenchmarkCertifyQuekoDepth measures the structural depth certificate —
// the per-instance check qubikos-verify runs over stored depth suites.
func BenchmarkCertifyQuekoDepth(b *testing.B) {
	benchCertify(b, QuekoDepth, Options{Optimal: 45, TargetTwoQubitGates: 3000, Seed: 7})
}

// benchCertify times Certify on an Eagle-127 instance of the family,
// read back from disk with its stored witness.
func benchCertify(b *testing.B, fam *Family, opts Options) {
	dir := b.TempDir()
	inst, err := fam.Generate(arch.IBMEagle127(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := WriteInstance(dir, "bench", inst); err != nil {
		b.Fatal(err)
	}
	li, err := ReadInstanceWithSolution(dir, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := li.Certify(); err != nil {
			b.Fatal(err)
		}
	}
}
