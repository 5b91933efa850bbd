package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geoblocks"
	"geoblocks/internal/store"
)

// TestMain lets a test run the daemon's main in a child process: with
// GEOBLOCKSD_RUN_MAIN set, the test binary is geoblocksd.
func TestMain(m *testing.M) {
	if os.Getenv("GEOBLOCKSD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRetiredCacheFlags pins that the per-shard AggregateTrie flags are
// gone: a command line that still sets one fails at flag parsing instead
// of starting a daemon that silently serves without the trie.
func TestRetiredCacheFlags(t *testing.T) {
	for _, args := range [][]string{{"-cache", "0.1"}, {"-cache-refresh", "2000"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Env = append(os.Environ(), "GEOBLOCKSD_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
			t.Fatalf("geoblocksd %v: err %v, want a non-zero exit (output %q)", args, err, out)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Fatalf("geoblocksd %v: output %q does not say %q", args, out, want)
		}
	}
}

// TestStalledBodyIsDropped pins the read deadline: a client that sends
// its headers and 30 bytes of a longer body, then stalls, is
// disconnected once readTimeout passes, and the handler's body read
// fails instead of waiting for the rest.
func TestStalledBodyIsDropped(t *testing.T) {
	if readTimeout <= 0 {
		t.Fatalf("readTimeout %v: stalled bodies are never dropped", readTimeout)
	}
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 300 * time.Millisecond

	readErr := make(chan error, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		readErr <- err
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, l, h, time.Second) }()
	defer func() {
		cancel()
		<-served
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"dataset":"taxi","rect":[-74.`
	if len(body) != 30 {
		t.Fatalf("stalled body is %d bytes, want 30", len(body))
	}
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n%s", body)

	select {
	case err := <-readErr:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("body read ended with %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("body read still blocked 10 s after the client stalled")
	}
	// The server closes the connection: whatever it answered, the client
	// reads to EOF.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, bufio.NewReader(conn)); err != nil {
		t.Fatalf("connection not closed after the read deadline: %v", err)
	}
	if waited := time.Since(start); waited < readTimeout {
		t.Fatalf("dropped after %v, before the %v deadline", waited, readTimeout)
	}
}

// TestGracefulShutdown verifies the serve loop: cancelling the context
// closes the listener but lets an in-flight request finish.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	inFlight := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(inFlight)
			<-release
		}
		fmt.Fprint(w, "ok")
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, l, h, 5*time.Second) }()

	base := "http://" + l.Addr().String()
	resp, err := http.Get(base + "/fast")
	if err != nil {
		t.Fatalf("request before shutdown: %v", err)
	}
	resp.Body.Close()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow status %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	<-inFlight

	cancel() // initiate graceful shutdown with the slow request in flight
	time.Sleep(50 * time.Millisecond)
	close(release)

	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request did not complete cleanly: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("serve did not return after shutdown")
	}
	if _, err := http.Get(base + "/fast"); err == nil {
		t.Fatalf("listener still accepting after shutdown")
	}
}

// TestParseLoad covers the -load flag parser.
func TestParseLoad(t *testing.T) {
	ls, err := parseLoad("taxi:5000")
	if err != nil || ls.spec != "taxi" || ls.rows != 5000 {
		t.Fatalf("parseLoad(taxi:5000) = %+v, %v", ls, err)
	}
	ls, err = parseLoad("osm")
	if err != nil || ls.spec != "osm" || ls.rows != 100_000 {
		t.Fatalf("parseLoad(osm) = %+v, %v", ls, err)
	}
	for _, bad := range []string{"mars", "taxi:x", "taxi:-5", "taxi:0"} {
		if _, err := parseLoad(bad); err == nil {
			t.Errorf("parseLoad(%q) accepted", bad)
		}
	}
}

// TestSnapshotAllAndRestoreDataDir is the daemon-level durability cycle:
// snapshotAll writes every dataset, restoreDataDir brings a fresh store
// back to the same answers, and corrupt snapshots are skipped without
// registering anything.
func TestSnapshotAllAndRestoreDataDir(t *testing.T) {
	bound := geoblocks.Rect{Min: geoblocks.Pt(0, 0), Max: geoblocks.Pt(10, 10)}
	pts := make([]geoblocks.Point, 500)
	vals := make([]float64, len(pts))
	for i := range pts {
		pts[i] = geoblocks.Pt(float64(i%100)/10, float64(i%97)/10)
		vals[i] = float64(i % 13)
	}
	st := store.New()
	for _, name := range []string{"alpha", "beta"} {
		d, err := store.Build(name, bound, geoblocks.NewSchema("v"), pts, [][]float64{vals},
			store.Options{Level: 8, ShardLevel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	dataDir := t.TempDir()
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	if err := snapshotAll(st, dataDir, logf); err != nil {
		t.Fatalf("snapshotAll: %v (logs: %v)", err, logs)
	}

	want, err := mustGet(st, "alpha").QueryRect(bound, geoblocks.Count(), geoblocks.Sum("v"))
	if err != nil {
		t.Fatal(err)
	}

	// Non-snapshot clutter and corrupt snapshots must be skipped.
	if err := os.MkdirAll(filepath.Join(dataDir, "not-a-snapshot"), 0o755); err != nil {
		t.Fatal(err)
	}
	corruptManifest := filepath.Join(dataDir, "beta", "manifest.json")
	if err := os.Truncate(corruptManifest, 10); err != nil {
		t.Fatal(err)
	}

	st2 := store.New()
	logs = nil
	if err := restoreDataDir(st2, dataDir, logf); err != nil {
		t.Fatalf("restoreDataDir: %v", err)
	}
	if names := st2.Names(); len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("restored %v, want [alpha] (logs: %v)", names, logs)
	}
	got, err := mustGet(st2, "alpha").QueryRect(bound, geoblocks.Count(), geoblocks.Sum("v"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Values[0] != want.Values[0] {
		t.Fatalf("restored answers differ: %+v vs %+v", got, want)
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "beta") {
		t.Fatalf("corrupt snapshot skip not logged: %q", joined)
	}
}

func mustGet(st *store.Store, name string) *store.Dataset {
	d, ok := st.Get(name)
	if !ok {
		panic("dataset " + name + " missing")
	}
	return d
}

// TestRestoreDataDirUsesDirectoryNames pins the directory-name
// precedence: a copied snapshot directory restores as a dataset named
// after the directory, it does not collide with the original under the
// manifest's internal name.
func TestRestoreDataDirUsesDirectoryNames(t *testing.T) {
	bound := geoblocks.Rect{Min: geoblocks.Pt(0, 0), Max: geoblocks.Pt(10, 10)}
	pts := []geoblocks.Point{geoblocks.Pt(1, 1), geoblocks.Pt(8, 8), geoblocks.Pt(4, 6)}
	d, err := store.Build("alpha", bound, geoblocks.NewSchema("v"), pts, [][]float64{{1, 2, 3}},
		store.Options{Level: 6, ShardLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	if _, err := d.Snapshot(filepath.Join(dataDir, "alpha")); err != nil {
		t.Fatal(err)
	}
	// A backup copy next to the live snapshot — its manifest still says
	// "alpha" inside.
	if err := os.CopyFS(filepath.Join(dataDir, "alpha-backup"), os.DirFS(filepath.Join(dataDir, "alpha"))); err != nil {
		t.Fatal(err)
	}

	st := store.New()
	if err := restoreDataDir(st, dataDir, func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	names := st.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "alpha-backup" {
		t.Fatalf("restored %v, want [alpha alpha-backup]", names)
	}
}
