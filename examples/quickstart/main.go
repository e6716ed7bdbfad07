// Quickstart: generate one QUBIKOS benchmark, route it with the
// LightSABRE-style tool, and report the optimality gap — the minimal
// end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

func main() {
	// A 16-qubit Rigetti Aspen-4 device and a benchmark circuit that
	// provably needs exactly 5 SWAP gates.
	dev := arch.RigettiAspen4()
	bench, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            5,
		TargetTwoQubitGates: 300,
		Seed:                2025,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Every instance ships with a machine-checked certificate: the
	// solution proves 5 SWAPs suffice, the cut chain that 5 are needed.
	if err := qubikos.Verify(bench); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark: %d qubits, %d two-qubit gates, optimal SWAPs = %d\n",
		bench.Circuit.NumQubits, bench.Circuit.TwoQubitGateCount(), bench.OptSwaps)

	// Route it with LightSABRE (32 random-restart trials).
	tool := sabre.New(sabre.Options{Trials: 32, Seed: 7})
	res, err := router.RouteWithContext(context.Background(), tool, bench.Circuit, dev)
	if err != nil {
		log.Fatal(err)
	}
	// Audit the result independently: connectivity, dependencies, counts.
	if err := router.Validate(bench.Circuit, dev, res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d SWAPs inserted -> optimality gap %.2fx\n",
		res.Tool, res.SwapCount, family.Swaps.Ratio(res.SwapCount, bench.OptSwaps))
	fmt.Println("the known-optimal solution uses", bench.Solution.SwapCount, "SWAPs")
}
