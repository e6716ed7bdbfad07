package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// bench returns a small real instance and a chaos wrapper around a real
// tool — the fault menagerie is only trustworthy if the Pass path is a
// genuine routing call.
func bench(t *testing.T, mode Mode) (*Router, *router.Prepared) {
	t.Helper()
	dev := arch.Grid3x3()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            1,
		TargetTwoQubitGates: 15,
		MaxTwoQubitGates:    30,
		PreferHighDegree:    true,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := router.Prepare(b.Circuit, dev)
	if err != nil {
		t.Fatal(err)
	}
	return &Router{Inner: sabre.New(sabre.Options{Trials: 1, Seed: 1}), Mode: mode}, p
}

func TestPassDelegatesAndWrongResultFailsValidation(t *testing.T) {
	r, p := bench(t, Pass)
	res, err := r.Route(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("Pass mode errored: %v", err)
	}
	if err := router.Validate(p.Circuit, p.Device, res); err != nil {
		t.Fatalf("Pass mode result fails validation: %v", err)
	}
	if want := "chaos(" + r.Inner.Name() + ")"; r.Name() != want {
		t.Errorf("Name() = %q, want %q", r.Name(), want)
	}

	r.Mode = WrongResult
	bad, err := r.Route(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("WrongResult mode errored: %v", err)
	}
	// The whole point of the lying mode: the corruption must be exactly
	// the kind the harness's independent audit catches.
	if err := router.Validate(p.Circuit, p.Device, bad); err == nil {
		t.Error("WrongResult survived router.Validate; the lie is undetectable")
	}
}

func TestHangUntilCancelHonoursBothExits(t *testing.T) {
	r, p := bench(t, HangUntilCancel)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Route(ctx, p, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("hang broken by deadline returned %v, want DeadlineExceeded", err)
	}

	release := make(chan struct{})
	r.Release = release
	done := make(chan error, 1)
	go func() {
		_, err := r.Route(context.Background(), p, nil) // a context that cannot fire
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hang returned before release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; !errors.Is(err, ErrReleased) {
		t.Errorf("released hang returned %v, want ErrReleased", err)
	}
}

func TestDelayFailAndPanicModes(t *testing.T) {
	r, p := bench(t, Delay)
	r.Sleep = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Route(ctx, p, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("delay under deadline returned %v, want DeadlineExceeded", err)
	}

	r.Mode, r.Sleep = Fail, 0
	if _, err := r.Route(context.Background(), p, nil); !errors.Is(err, ErrInjected) {
		t.Errorf("Fail mode returned %v, want ErrInjected", err)
	}
	custom := errors.New("disk on fire")
	r.Err = custom
	if _, err := r.Route(context.Background(), p, nil); !errors.Is(err, custom) {
		t.Errorf("Fail mode with custom Err returned %v, want it wrapped", err)
	}

	r.Mode = Panic
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Panic mode did not panic")
			}
		}()
		r.Route(context.Background(), p, nil) //nolint:errcheck
	}()
}
