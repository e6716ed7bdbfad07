package suite

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// The janitor must collect staging directories old enough to be orphans
// while leaving fresh ones — a live concurrent generation's workspace —
// untouched.
func TestOpenJanitorCollectsOnlyStaleTmp(t *testing.T) {
	root := t.TempDir()
	if _, err := Open(root, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	tmpRoot := filepath.Join(root, "tmp")
	stale := filepath.Join(tmpRoot, "deadbeef0000-orphan")
	fresh := filepath.Join(tmpRoot, "deadbeef0001-live")
	for _, d := range []string{stale, fresh} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * DefaultTmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(root, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale staging dir survived the janitor (stat err = %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh staging dir was collected: %v", err)
	}
}

// Opening a store while another store instance is mid-generation must
// not disturb the live staging directory, and the generation must still
// commit. The BeforeCommit fault holds the generation open at its most
// vulnerable point while the second Open runs its janitor.
func TestOpenJanitorSparesLiveGeneration(t *testing.T) {
	root := t.TempDir()
	staged := make(chan string, 1)
	release := make(chan struct{})
	gen, err := Open(root, StoreOptions{Workers: 2, Faults: &Faults{
		BeforeCommit: func(dir string) error {
			staged <- dir
			<-release
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		st  *Suite
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := gen.EnsureCtx(context.Background(), tinyManifest())
		done <- result{st, err}
	}()

	dir := <-staged
	if _, err := Open(root, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("janitor collected a live generation's staging dir: %v", err)
	}
	close(release)

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := gen.VerifyChecksums(r.st.Hash); err != nil {
		t.Errorf("suite committed under a concurrent Open fails verification: %v", err)
	}
}

// A dead context stops EnsureCtx before any work; the store stays fully
// usable afterwards.
func TestEnsureCtxCancelledBeforeStart(t *testing.T) {
	store := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.EnsureCtx(ctx, tinyManifest()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := store.Stats().InstancesGenerated; n != 0 {
		t.Errorf("cancelled Ensure generated %d instances", n)
	}
	if _, err := store.EnsureCtx(context.Background(), tinyManifest()); err != nil {
		t.Fatalf("store unusable after a cancelled Ensure: %v", err)
	}
}

// A follower coalesced onto a leader must survive the leader's own
// cancellation: it retries, becomes the next leader under its live
// context, and completes the generation.
func TestEnsureCtxFollowerSurvivesLeaderCancellation(t *testing.T) {
	root := t.TempDir()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	var firstHang atomic.Bool
	firstHang.Store(true)
	started := make(chan struct{})
	proceed := make(chan struct{})
	store, err := Open(root, StoreOptions{Workers: 1, Faults: &Faults{
		BeforeInstance: func(string) error {
			if firstHang.CompareAndSwap(true, false) {
				close(started)
				<-proceed
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := store.EnsureCtx(leaderCtx, tinyManifest())
		leaderErr <- err
	}()
	<-started // the leader is registered and inside its generation

	type result struct {
		st  *Suite
		err error
	}
	followerDone := make(chan result, 1)
	go func() {
		st, err := store.EnsureCtx(context.Background(), tinyManifest())
		followerDone <- result{st, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the follower coalesce onto the flight
	cancelLeader()
	close(proceed)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-followerDone
	if r.err != nil {
		t.Fatalf("follower inherited the leader's death: %v", r.err)
	}
	if err := store.VerifyChecksums(r.st.Hash); err != nil {
		t.Errorf("follower-regenerated suite fails verification: %v", err)
	}
}

// A flaky instance write fails that Ensure but poisons nothing: once the
// fault clears, the same manifest generates cleanly, and no staging
// litter remains (an erroring process still runs its cleanup — only a
// killed one leaves litter).
func TestEnsureRecoversFromInjectedWriteError(t *testing.T) {
	root := t.TempDir()
	var failing atomic.Bool
	failing.Store(true)
	store, err := Open(root, StoreOptions{Workers: 2, Faults: &Faults{
		BeforeInstance: func(base string) error {
			if failing.Load() {
				return fmt.Errorf("injected write error on %s", base)
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := store.EnsureCtx(context.Background(), tinyManifest()); err == nil {
		t.Fatal("Ensure succeeded through an injected write error")
	}
	if entries, _ := os.ReadDir(filepath.Join(root, "tmp")); len(entries) != 0 {
		t.Errorf("failed generation left %d staging dirs", len(entries))
	}

	failing.Store(false)
	st, err := store.EnsureCtx(context.Background(), tinyManifest())
	if err != nil {
		t.Fatalf("store poisoned by an earlier write error: %v", err)
	}
	if err := store.VerifyChecksums(st.Hash); err != nil {
		t.Error(err)
	}
}

// A leader that dies at the commit point like a killed process — staging
// dir left behind — is recovered in two independent ways: a retry
// regenerates the suite, and a later Open's janitor collects the litter
// once it has aged past the gate.
func TestCrashedCommitLeavesRecoverableLitter(t *testing.T) {
	root := t.TempDir()
	var crash atomic.Bool
	crash.Store(true)
	store, err := Open(root, StoreOptions{Workers: 2, Faults: &Faults{
		KeepTmpOnFailure: true,
		BeforeCommit: func(string) error {
			if crash.Load() {
				return errors.New("injected leader crash at commit")
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := store.EnsureCtx(context.Background(), tinyManifest()); err == nil {
		t.Fatal("Ensure succeeded through an injected commit crash")
	}
	tmpRoot := filepath.Join(root, "tmp")
	entries, err := os.ReadDir(tmpRoot)
	if err != nil || len(entries) != 1 {
		t.Fatalf("crashed commit left %d staging dirs (err %v), want exactly 1", len(entries), err)
	}

	crash.Store(false)
	st, err := store.EnsureCtx(context.Background(), tinyManifest())
	if err != nil {
		t.Fatalf("retry after crashed commit failed: %v", err)
	}
	if err := store.VerifyChecksums(st.Hash); err != nil {
		t.Error(err)
	}

	// Age the litter past the gate; a fresh Open collects it.
	stale := filepath.Join(tmpRoot, entries[0].Name())
	old := time.Now().Add(-2 * DefaultTmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("aged litter survived the janitor (stat err = %v)", err)
	}
}
