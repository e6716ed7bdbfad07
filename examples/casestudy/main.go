// Casestudy: the paper's Section IV-C analysis — give SABRE the *optimal*
// initial mapping on 100 stored Aspen-4 QUBIKOS instances, each
// certified on its bytes, and watch its routing still go wrong; dump the
// cost breakdown of an illustrative decision (the paper's Figure 5
// showed equal basic costs with the uniform lookahead term steering
// toward the wrong SWAP), then ablate the decay-weighted lookahead the
// paper proposes as a fix.
package main

import (
	"context"
	"log"
	"os"

	"repro/internal/harness"
)

func main() {
	res, err := harness.RunCaseStudy(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	harness.RenderCaseStudy(os.Stdout, res)
}
