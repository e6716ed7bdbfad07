// Command-line smoke tests: build each binary once and drive the full
// on-disk workflow (generate -> verify -> route) the way a user would.
package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildCmds compiles the named commands (default: all six) into a temp
// dir, once per test.
func buildCmds(t *testing.T, names ...string) string {
	t.Helper()
	if len(names) == 0 {
		names = []string{"qubikos-gen", "qubikos-eval", "qubikos-verify", "qubikos-route", "qubikos-serve", "qubikos-loadtest"}
	}
	dir := t.TempDir()
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b)
}

func TestCommandPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t)
	cache, scratch := t.TempDir(), t.TempDir()

	// Generate a two-instance suite; the printed instance directory is
	// where qubikos-route and qubikos-verify -qasm read it.
	out := run(t, filepath.Join(bins, "qubikos-gen"),
		"-cache-dir", cache, "-arch", "aspen4", "-swaps", "3", "-gates", "80", "-count", "2",
		"-seed", "5")
	if !strings.Contains(out, "optimal swaps 3") {
		t.Fatalf("gen output unexpected:\n%s", out)
	}
	work := instanceDirOf(t, out)
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 { // 2 instances x (qasm, solution.qasm, json)
		t.Fatalf("generated %d files, want 6", len(entries))
	}
	var base string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			base = strings.TrimSuffix(e.Name(), ".json")
			break
		}
	}

	// Route the stored instance with two tools.
	out = run(t, filepath.Join(bins, "qubikos-route"),
		"-dir", work, "-base", base, "-tool", "lightsabre", "-trials", "8")
	if !strings.Contains(out, "gap") {
		t.Fatalf("route output unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bins, "qubikos-route"),
		"-dir", work, "-base", base, "-tool", "vf2-ts")
	if !strings.Contains(out, "vf2-ts") {
		t.Fatalf("vf2-ts route output unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bins, "qubikos-route"),
		"-dir", work, "-base", base, "-tool", "tket", "-from-optimal")
	if !strings.Contains(out, "routing from the optimal mapping") {
		t.Fatalf("route -from-optimal output unexpected:\n%s", out)
	}
	// -timeout bounds routing from the optimal mapping too: an
	// over-budget run exits non-zero with the budget message instead of
	// finishing past its deadline.
	cmd := exec.Command(filepath.Join(bins, "qubikos-route"),
		"-dir", work, "-base", base, "-tool", "lightsabre", "-trials", "100000",
		"-from-optimal", "-timeout", "50ms")
	if b, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(b), "exceeded the -timeout budget") {
		t.Fatalf("route -from-optimal -timeout 50ms: err=%v, want a non-zero exit with the budget message\n%s", err, b)
	}

	// Exact verification of the stored QASM against its claimed optimum.
	out = run(t, filepath.Join(bins, "qubikos-verify"),
		"-qasm", filepath.Join(work, base+".qasm"), "-arch", "aspen4", "-claim", "3")
	if !strings.Contains(out, "optimal SWAP count is exactly 3") {
		t.Fatalf("verify output unexpected:\n%s", out)
	}

	// A tiny eval run across one architecture.
	out = run(t, filepath.Join(bins, "qubikos-eval"),
		"-arch", "aspen4", "-circuits", "1", "-trials", "2", "-swaps", "2,3",
		"-csv", filepath.Join(scratch, "cells.csv"))
	if !strings.Contains(out, "lightsabre") || !strings.Contains(out, "Average optimality gap") {
		t.Fatalf("eval output unexpected:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(scratch, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "device,tool,metric,optimal") {
		t.Fatal("CSV missing header")
	}
	if !strings.Contains(string(csv), ",swaps,") {
		t.Fatal("CSV rows missing the metric label")
	}

	// The small-scale optimality study.
	out = run(t, filepath.Join(bins, "qubikos-verify"),
		"-circuits", "1", "-swaps", "1,2", "-seed", "3")
	if !strings.Contains(out, "deviations: 0") {
		t.Fatalf("study output unexpected:\n%s", out)
	}
}

// qubikos-route -tool builds, seeds and audits its tool through
// router.Guard exactly as a -portfolio racer, so one seed routes one
// instance to the same SWAP count in both modes.
func TestRouteSeedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t, "qubikos-gen", "qubikos-route")
	work := instanceDirOf(t, run(t, filepath.Join(bins, "qubikos-gen"),
		"-cache-dir", t.TempDir(), "-arch", "aspen4", "-swaps", "3", "-gates", "80", "-count", "2",
		"-seed", "5"))
	swaps := regexp.MustCompile(`(\d+) SWAPs`)
	route := func(args ...string) string {
		args = append([]string{"-dir", work, "-base", "s003_i000", "-trials", "8", "-seed", "1"}, args...)
		out := run(t, filepath.Join(bins, "qubikos-route"), args...)
		m := swaps.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("qubikos-route %v printed no SWAP count:\n%s", args, out)
		}
		return m[1]
	}
	for _, tool := range []string{"lightsabre", "ml-qls", "qmap", "tket"} {
		single := route("-tool", tool)
		raced := route("-portfolio", "-tools", tool, "-hedge", "0")
		if single != raced {
			t.Errorf("%s: -tool routes %s SWAPs, -portfolio routes %s with the same seed", tool, single, raced)
		}
	}
}

// Without -cache-dir, qubikos-eval runs the same store-backed evaluator
// over a temporary store: -workers and -jsonl act as they do with a
// cache, and the temporary store is removed on every exit, including a
// run that fails after evaluating.
func TestEvalWithoutCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t, "qubikos-eval")
	work, tmp := t.TempDir(), t.TempDir()
	eval := func(args ...string) (string, error) {
		args = append([]string{"-arch", "aspen4", "-circuits", "1", "-trials", "2", "-swaps", "2,3", "-workers", "2"}, args...)
		cmd := exec.Command(filepath.Join(bins, "qubikos-eval"), args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		out, err := cmd.CombinedOutput()
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("qubikos-eval %v left %d entries in TMPDIR", args, len(left))
		}
		return string(out), err
	}

	rowsPath := filepath.Join(work, "rows.jsonl")
	if out, err := eval("-jsonl", rowsPath); err != nil {
		t.Fatalf("eval -jsonl: %v\n%s", err, out)
	}
	b, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r struct{ Tool, Instance string }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL row %q: %v", line, err)
		}
		pairs[r.Tool+"/"+r.Instance] = true
	}
	if want := 4 * 2; len(pairs) != want { // 4 tools x 2 instances
		t.Errorf("-jsonl holds %d (tool, instance) rows, want %d:\n%s", len(pairs), want, b)
	}

	out, err := eval("-csv", filepath.Join(work, "missing", "cells.csv"))
	if err == nil || !strings.Contains(out, "Average optimality gap") {
		t.Fatalf("eval -csv into a missing directory: err=%v, want a failure after evaluating\n%s", err, out)
	}

	// A CSV whose writes fail fails the run and is never reported as
	// written: /dev/full accepts the open and rejects every write.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Logf("no /dev/full (%v); the CSV write-error case is not run", err)
		return
	}
	out, err = eval("-tools", "lightsabre", "-csv", "/dev/full")
	if err == nil || strings.Contains(out, "wrote /dev/full") {
		t.Fatalf("eval -csv /dev/full: err=%v, want a non-zero exit without \"wrote\"\n%s", err, out)
	}
}

// TestSuitePipeline drives the content-addressed store the way a user
// would: generate a suite into a cache, observe that a second request is
// a pure cache hit, evaluate the stored suite by hash, and certify it
// exactly. The cached evaluation performs no generation — the suite
// directory's modification state proves the bytes are untouched.
func TestSuitePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t)
	cache := t.TempDir()

	genArgs := []string{"-cache-dir", cache, "-arch", "grid3x3",
		"-swaps", "1,2", "-gates", "20", "-max-gates", "30",
		"-prefer-high-degree", "-count", "1", "-seed", "3"}
	out := run(t, filepath.Join(bins, "qubikos-gen"), genArgs...)
	if !strings.Contains(out, "(generated)") {
		t.Fatalf("first suite gen should generate:\n%s", out)
	}
	hash := suiteHashOf(t, out)

	// Second identical request: cache hit, same hash.
	out = run(t, filepath.Join(bins, "qubikos-gen"), genArgs...)
	if !strings.Contains(out, "(cache hit)") || !strings.Contains(out, hash) {
		t.Fatalf("second suite gen should hit the cache with the same hash:\n%s", out)
	}

	// Evaluate the stored suite by hash; nothing may be regenerated, so
	// snapshot the instance files and compare afterwards.
	instDir := filepath.Join(cache, "v1", hash[:2], hash, "instances")
	before := snapshotDir(t, instDir)
	out = run(t, filepath.Join(bins, "qubikos-eval"),
		"-cache-dir", cache, "-suite", hash, "-trials", "2", "-workers", "2")
	if !strings.Contains(out, "lightsabre") || !strings.Contains(out, "Average optimality gap") {
		t.Fatalf("stored-suite eval output unexpected:\n%s", out)
	}
	after := snapshotDir(t, instDir)
	if len(before) != len(after) {
		t.Fatalf("evaluation changed the instance file set: %d -> %d files", len(before), len(after))
	}
	for name, b := range before {
		if string(after[name]) != string(b) {
			t.Errorf("evaluation modified stored instance %s", name)
		}
	}

	// Exact certification of every stored instance.
	out = run(t, filepath.Join(bins, "qubikos-verify"),
		"-cache-dir", cache, "-suite", hash)
	if !strings.Contains(out, "checksums OK") || !strings.Contains(out, "2/2 instances certified exactly") {
		t.Fatalf("suite verify output unexpected:\n%s", out)
	}

	// Overwrite one stored witness with its own unrouted circuit (0 SWAPs)
	// and re-stamp its checksum: the checksum index passes, so only the
	// witness check can reject the suite.
	witnesses, err := filepath.Glob(filepath.Join(instDir, "*.solution.qasm"))
	if err != nil || len(witnesses) != 2 {
		t.Fatalf("stored witnesses %v (err %v), want two", witnesses, err)
	}
	witness := witnesses[len(witnesses)-1]
	circ, err := os.ReadFile(strings.TrimSuffix(witness, ".solution.qasm") + ".qasm")
	if err != nil {
		t.Fatal(err)
	}
	restampInstanceFile(t, filepath.Dir(instDir), filepath.Base(witness), circ)
	b, err := exec.Command(filepath.Join(bins, "qubikos-verify"), "-cache-dir", cache, "-suite", hash).CombinedOutput()
	if err == nil || !strings.Contains(string(b), "witness uses 0 SWAPs") {
		t.Fatalf("suite with a 0-SWAP witness: err=%v, want a non-zero exit naming the witness\n%s", err, b)
	}
}

// restampInstanceFile overwrites one instance file of the suite stored in
// suiteDir and updates its checksums.json entry to match.
func restampInstanceFile(t *testing.T, suiteDir, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(suiteDir, "instances", name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(suiteDir, "checksums.json")
	raw, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	if err := json.Unmarshal(raw, &sums); err != nil {
		t.Fatal(err)
	}
	sums[name] = fmt.Sprintf("%x", sha256.Sum256(b))
	if raw, err = json.MarshalIndent(sums, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(index, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// suiteHashOf returns the suite content hash qubikos-gen printed.
func suiteHashOf(t *testing.T, out string) string {
	t.Helper()
	for _, f := range strings.Fields(out) {
		if len(f) == 64 {
			return f
		}
	}
	t.Fatalf("no suite hash in output:\n%s", out)
	return ""
}

// instanceDirOf returns the instance directory qubikos-gen printed on
// its "dir:" line.
func instanceDirOf(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if dir, ok := strings.CutPrefix(strings.TrimSpace(line), "dir: "); ok {
			return dir
		}
	}
	t.Fatalf("no dir: line in output:\n%s", out)
	return ""
}

// An elapsed -timeout is reported as the budget it is in every
// certification mode, not as a raw context error.
func TestVerifyTimeoutNamesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t, "qubikos-gen", "qubikos-verify")
	cache := t.TempDir()
	out := run(t, filepath.Join(bins, "qubikos-gen"),
		"-cache-dir", cache, "-arch", "grid3x3", "-swaps", "1", "-gates", "20",
		"-max-gates", "30", "-prefer-high-degree", "-count", "1", "-seed", "3")
	hash, qasm := suiteHashOf(t, out), filepath.Join(instanceDirOf(t, out), "s001_i000.qasm")

	for mode, args := range map[string][]string{
		"study":       {"-circuits", "1", "-swaps", "1"},
		"qasm":        {"-qasm", qasm, "-arch", "grid3x3", "-claim", "1"},
		"suite":       {"-cache-dir", cache, "-suite", hash},
		"depth study": {"-family", "queko-depth", "-depths", "2", "-circuits", "1"},
	} {
		cmd := exec.Command(filepath.Join(bins, "qubikos-verify"), append(args, "-timeout", "1ns")...)
		b, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(b), "certification exceeded the -timeout budget 1ns") {
			t.Errorf("%s mode with -timeout 1ns: err=%v, want a non-zero exit naming the budget\n%s", mode, err, b)
		}
	}
}

func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestCommandErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t)
	// Each rejected qubikos-gen flag fails before the store opens, so
	// its fresh -cache-dir is never created.
	genCache := filepath.Join(t.TempDir(), "never-created")
	cases := [][]string{
		{filepath.Join(bins, "qubikos-gen"), "-cache-dir", genCache, "-arch", "nonexistent"},
		{filepath.Join(bins, "qubikos-gen"), "-cache-dir", genCache, "-family", "warp-core"}, // unknown family

		{filepath.Join(bins, "qubikos-route"), "-tool", "lightsabre"},            // missing -base
		{filepath.Join(bins, "qubikos-route"), "-base", "x", "-tool", "bogus"},   // unknown tool
		{filepath.Join(bins, "qubikos-eval"), "-arch", "grid3x3"},                // not a Figure-4 device
		{filepath.Join(bins, "qubikos-eval"), "-family", "warp-core"},            // unknown family
		{filepath.Join(bins, "qubikos-verify"), "-qasm", "/does/not/exist.qasm"}, // missing file
		{filepath.Join(bins, "qubikos-verify"), "-suite", "deadbeef"},            // -suite without -cache-dir
		{filepath.Join(bins, "qubikos-eval"), "-suite", "deadbeef"},              // -suite without -cache-dir
		// Grid values parse whole: "1e3" is not 1, "2x" not 2, "5.9" not 5.
		{filepath.Join(bins, "qubikos-eval"), "-arch", "aspen4", "-circuits", "1", "-trials", "1", "-tools", "tket", "-swaps", "1e3"},
		{filepath.Join(bins, "qubikos-verify"), "-circuits", "1", "-swaps", "2x"},
		{filepath.Join(bins, "qubikos-gen"), "-cache-dir", genCache, "-swaps", "5.9"},
		// A repeated tool would route every instance twice.
		{filepath.Join(bins, "qubikos-eval"), "-arch", "aspen4", "-swaps", "5", "-circuits", "1", "-trials", "2", "-tools", "tket,tket"},
	}
	for _, c := range cases {
		cmd := exec.Command(c[0], c[1:]...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v: expected failure", c)
		}
		if _, err := os.Stat(genCache); !os.IsNotExist(err) {
			t.Fatalf("%v: a rejected run left a store at -cache-dir (stat err %v)", c, err)
		}
	}

	// Unknown -tools names must fail with the registered tools listed —
	// not be silently skipped.
	cmd := exec.Command(filepath.Join(bins, "qubikos-eval"),
		"-arch", "aspen4", "-circuits", "1", "-trials", "2", "-swaps", "2",
		"-tools", "lightsabre,warpdrive")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown -tools accepted:\n%s", out)
	}
	for _, name := range []string{"warpdrive", "lightsabre", "ml-qls", "qmap", "tket"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-tools error does not mention %q:\n%s", name, out)
		}
	}
}

// TestDepthSuitePipeline drives a depth-objective suite end to end the
// way a user would: qubikos-gen -family queko-depth into the store (hit
// on the second run), qubikos-eval scoring depth ratios for SABRE and
// tket, and qubikos-verify re-checking every instance's depth
// certificate.
func TestDepthSuitePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t)
	cache := t.TempDir()

	genArgs := []string{"-cache-dir", cache, "-arch", "grid3x3",
		"-family", "queko-depth", "-depths", "3,5", "-gates", "12",
		"-count", "2", "-seed", "3"}
	out := run(t, filepath.Join(bins, "qubikos-gen"), genArgs...)
	if !strings.Contains(out, "(generated)") || !strings.Contains(out, "metric=depth") {
		t.Fatalf("first depth-suite gen unexpected:\n%s", out)
	}
	hash := suiteHashOf(t, out)
	out = run(t, filepath.Join(bins, "qubikos-gen"), genArgs...)
	if !strings.Contains(out, "(cache hit)") || !strings.Contains(out, hash) {
		t.Fatalf("second depth-suite gen should hit the cache:\n%s", out)
	}

	// Depth-scored evaluation of the stored suite for SABRE and tket.
	out = run(t, filepath.Join(bins, "qubikos-eval"),
		"-cache-dir", cache, "-suite", hash, "-tools", "lightsabre,tket",
		"-trials", "2", "-workers", "2")
	if !strings.Contains(out, "lightsabre") || !strings.Contains(out, "tket") ||
		!strings.Contains(out, "depth") {
		t.Fatalf("depth eval output unexpected:\n%s", out)
	}

	// Every instance's depth certificate re-checks.
	out = run(t, filepath.Join(bins, "qubikos-verify"),
		"-cache-dir", cache, "-suite", hash)
	if !strings.Contains(out, "checksums OK") || !strings.Contains(out, "metric depth") ||
		!strings.Contains(out, "4/4 instances certified by depth certificate") {
		t.Fatalf("depth suite verify output unexpected:\n%s", out)
	}

	// The depth-certificate study runs clean.
	out = run(t, filepath.Join(bins, "qubikos-verify"),
		"-family", "queko-depth", "-depths", "2,3", "-circuits", "1", "-seed", "3")
	if !strings.Contains(out, "deviations: 0") {
		t.Fatalf("depth study output unexpected:\n%s", out)
	}
}

// TestServeGracefulShutdown starts qubikos-serve, confirms liveness,
// sends SIGTERM, and requires a clean drain: exit code 0 and the drain
// log lines.
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildCmds(t)
	cache := t.TempDir()

	cmd := exec.Command(filepath.Join(bins, "qubikos-serve"),
		"-cache-dir", cache, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the live address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	i := strings.LastIndex(line, "listening on ")
	if i < 0 {
		t.Fatalf("startup line has no address: %q", line)
	}
	addr := strings.TrimSpace(line[i+len("listening on "):])

	// Server must be live before the signal.
	var alive bool
	for range 50 {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			alive = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !alive {
		t.Fatal("server never became healthy")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var drained []string
	for sc.Scan() {
		drained = append(drained, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM did not exit cleanly: %v (output: %v)", err, drained)
	}
	joined := strings.Join(drained, "\n")
	if !strings.Contains(joined, "draining") || !strings.Contains(joined, "drained, exiting") {
		t.Errorf("shutdown output missing drain lines:\n%s", joined)
	}
}
