package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/serve"
)

// TestSIGTERMAtStartupDrains launches the built daemon repeatedly and
// sends SIGTERM the moment it prints its HTTP address — before the binary
// listener is up. Every launch must still drain: exit 0 with a balanced
// drained line. A daemon that registers its signal handler late is killed
// by the runtime's default SIGTERM action in that window.
func TestSIGTERMAtStartupDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the cqmserve binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build cqmserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cqmserve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cqmserve: %v\n%s", err, out)
	}
	m, _, err := serve.TrainQuickModel(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.json")
	if err := ckpt.WriteArtifact(model, ckpt.Manifest{Kind: ckpt.KindMeasure}, m); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		if err := launchAndTerminate(bin, model); err != nil {
			t.Errorf("launch %d: %v", i, err)
		}
	}
}

// launchAndTerminate starts cqmserve, sends SIGTERM as soon as the http
// line appears, and checks the exit status and the drained line.
func launchAndTerminate(bin, model string) error {
	cmd := exec.Command(bin, "-model", model, "-addr", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()

	var lines []string
	signalled := false
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if !signalled && strings.HasPrefix(line, "http: ") {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return fmt.Errorf("signalling: %w", err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("exit: %v (stdout %q, stderr %q)", err, lines, stderr.String())
	}
	if !signalled {
		return fmt.Errorf("no http line in %q", lines)
	}
	for _, line := range lines {
		var admitted, scored, accept, discard, eps, overload, draining, noModel, internal, deadline, shed, restarts uint64
		if _, err := fmt.Sscanf(line,
			"drained: admitted %d, scored %d (accept %d / discard %d / ε %d), rejected %d overload, %d draining, %d no-model, %d internal, %d deadline, %d shed; %d shard restarts",
			&admitted, &scored, &accept, &discard, &eps, &overload, &draining, &noModel, &internal, &deadline, &shed, &restarts); err != nil {
			continue
		}
		if answered := scored + noModel + internal + deadline + shed; answered != admitted {
			return fmt.Errorf("unbalanced drain: admitted %d, answered %d in %q", admitted, answered, line)
		}
		return nil
	}
	return fmt.Errorf("no drained line in %q", lines)
}
