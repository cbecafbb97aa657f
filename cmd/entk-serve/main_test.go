package main

import (
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMAfterFirstAnswer is the start-up race gate: the daemon
// registers for SIGTERM before it answers its first request, so a
// SIGTERM sent right after the first 200 is caught and ends in the
// graceful shutdown (run returns nil) instead of killing the process.
func TestSIGTERMAfterFirstAnswer(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-state", t.TempDir()}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before answering: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start within 10s")
	}
	resp, err := http.Get("http://" + addr + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first answer: status %d, want 200", resp.StatusCode)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v, want a clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
}
