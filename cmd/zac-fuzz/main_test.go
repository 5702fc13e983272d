package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"zac/internal/compiler"
)

// TestUnknownCompilerExitsOne pins the flag-validation contract: naming an
// unregistered compiler fails fast with exit code 1 and the valid list.
func TestUnknownCompilerExitsOne(t *testing.T) {
	for _, args := range [][]string{
		{"-compilers", "zac,no-such-compiler", "-smoke"},
		{"-compilers", "no-such-compiler", "-smoke"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), args, &stdout, &stderr)
		if code != 1 {
			t.Errorf("run(%v) = %d, want 1\nstderr: %s", args, code, stderr.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `unknown compiler "no-such-compiler"`) {
			t.Errorf("run(%v) stderr missing the offending name: %s", args, msg)
		}
		for _, name := range compiler.Names() {
			if !strings.Contains(msg, name) {
				t.Errorf("run(%v) stderr missing valid compiler %s: %s", args, name, msg)
			}
		}
	}
}

// TestBadFlagExitsTwo pins usage errors to exit code 2, distinct from
// divergences (1).
func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(-no-such-flag) = %d, want 2", code)
	}
}

// TestBadSpec pins a malformed -spec to a harness error (exit 2): the seed
// pool itself is broken.
func TestBadSpec(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-spec", "rb:bogus=1"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.want {
			t.Errorf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
				tc.args, code, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestListWorkloads pins the discovery surface.
func TestListWorkloads(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list-workloads"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list-workloads) = %d, want 0", code)
	}
	for _, fam := range []string{"clifford", "rb", "qaoa"} {
		if !strings.Contains(stdout.String(), fam) {
			t.Errorf("-list-workloads output missing %s", fam)
		}
	}
}

// TestDiffSmoke runs the differential oracle end to end over one pinned
// spec with the zac ablation pair: exit 0, a divergence summary, and the
// feature counters in the run report.
func TestDiffSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a pinned spec with two compilers twice; skipped in -short")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-spec", "rb:n=6,depth=4,seed=7",
		"-compilers", "zac,zac-vanilla", "-corpus", filepath.Join(dir, "corpus")}
	code := run(context.Background(), args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "0 divergences") {
		t.Errorf("summary missing divergence count: %s", out)
	}
	if !strings.Contains(out, "features reached:") {
		t.Errorf("summary missing feature counters: %s", out)
	}
	// A clean run persists nothing.
	if entries, err := os.ReadDir(filepath.Join(dir, "corpus")); err == nil && len(entries) > 0 {
		t.Errorf("clean run wrote %d corpus entries", len(entries))
	}
}

// TestDurationRunsUntilElapsed: -duration keeps mutating past the seeds
// until the clock runs out, then reports the run like any other.
func TestDurationRunsUntilElapsed(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzes for a second; skipped in -short")
	}
	const d = time.Second
	var stdout, stderr bytes.Buffer
	args := []string{"-spec", "rb:n=6,depth=4,seed=7", "-compilers", "zac", "-duration", d.String()}
	start := time.Now()
	code := run(context.Background(), args, &stdout, &stderr)
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("run returned after %s, before -duration %s", elapsed, d)
	}
	if code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	m := regexp.MustCompile(`(\d+) inputs`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("summary missing the input count: %s", stdout.String())
	}
	if inputs, _ := strconv.Atoi(m[1]); inputs < 2 {
		t.Errorf("checked %d inputs; -duration should mutate beyond the one seed", inputs)
	}
}
