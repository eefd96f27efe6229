package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"backdroid/internal/testapps"
)

func fixturePath(t *testing.T) string {
	t.Helper()
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app.Name+".apk")
	if err := app.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func serveLines(t *testing.T, script string, cfg config) []string {
	t.Helper()
	var out bytes.Buffer
	if err := serve(strings.NewReader(script), &out, cfg); err != nil {
		t.Fatalf("serve: %v\noutput:\n%s", err, out.String())
	}
	return strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
}

// grepLines returns the lines matching the pattern.
func grepLines(lines []string, pattern string) []string {
	re := regexp.MustCompile(pattern)
	var out []string
	for _, l := range lines {
		if re.MatchString(l) {
			out = append(out, l)
		}
	}
	return out
}

// TestServeWarmResubmission drives the full service loop: the same app
// submitted twice must stream identical sink verdicts, with the second
// job a bundle-store hit (zero disassembly, zero builds).
func TestServeWarmResubmission(t *testing.T) {
	path := fixturePath(t)
	script := fmt.Sprintf("submit %s\nsubmit %s\nstats\nquit\n", path, path)
	lines := serveLines(t, script, config{workers: 1, storeBudget: 0, backend: "indexed", stats: true})

	for _, kind := range []string{"queued", "started", "done"} {
		if got := len(grepLines(lines, "^"+kind+" ")); got != 2 {
			t.Fatalf("%d %q lines, want 2:\n%s", got, kind, strings.Join(lines, "\n"))
		}
	}
	// Sink streams of the two jobs must be identical once the job id is
	// stripped — the store must not change one verdict.
	strip := func(ls []string) string {
		out := ""
		for _, l := range ls {
			out += regexp.MustCompile(`id=\d+ `).ReplaceAllString(l, "") + "\n"
		}
		return out
	}
	first := grepLines(lines, `^sink id=1 `)
	second := grepLines(lines, `^sink id=2 `)
	if len(first) == 0 {
		t.Fatalf("no sink events streamed:\n%s", strings.Join(lines, "\n"))
	}
	if strip(first) != strip(second) {
		t.Fatalf("warm resubmission changed the sink stream:\n%s\nvs\n%s", strip(first), strip(second))
	}

	done1 := grepLines(lines, `^done id=1 `)
	done2 := grepLines(lines, `^done id=2 `)
	if len(done1) != 1 || len(done2) != 1 {
		t.Fatalf("missing done lines:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(done1[0], "store=miss") {
		t.Fatalf("first done line should be a store miss: %s", done1[0])
	}
	if !strings.Contains(done2[0], "store=hit") || !strings.Contains(done2[0], "disassembled=0") ||
		!strings.Contains(done2[0], "builds=0") {
		t.Fatalf("second done line should be a fully-warm hit: %s", done2[0])
	}
	if got := grepLines(lines, `^stats metric backdroid_store_entries 1$`); len(got) == 0 {
		t.Fatalf("stats lines missing the store entry:\n%s", strings.Join(lines, "\n"))
	}
}

// TestServeBadPathFailsJobOnly pins failure isolation: a bad path fails
// its own job; the service keeps running and analyzes the next one.
func TestServeBadPathFailsJobOnly(t *testing.T) {
	path := fixturePath(t)
	script := fmt.Sprintf("submit /nonexistent/x.apk\nsubmit %s\nquit\n", path)
	lines := serveLines(t, script, config{workers: 1, storeBudget: -1, backend: "indexed", stats: false})
	if got := grepLines(lines, `^failed id=1 `); len(got) != 1 {
		t.Fatalf("bad path did not fail job 1:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^done id=2 `); len(got) != 1 {
		t.Fatalf("good job after a failure did not finish:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^stats metric backdroid_dispatched_total 2$`); len(got) != 1 {
		t.Fatalf("missing exit stats:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^stats metric backdroid_store_`); len(got) != 0 {
		t.Fatalf("disabled store must register no store series:\n%s", strings.Join(got, "\n"))
	}
}

// TestServeCommandErrors pins the protocol's error replies.
func TestServeCommandErrors(t *testing.T) {
	lines := serveLines(t, "cancel notanumber\ncancel 42\nsubmit\nquit\n",
		config{workers: 1, storeBudget: -1, backend: "indexed"})
	for _, want := range []string{
		`^error: cancel wants a job id`,
		`^error: job 42 not cancelable`,
		`^error: submit wants a path`,
	} {
		if got := grepLines(lines, want); len(got) != 1 {
			t.Fatalf("missing %q reply:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

// TestServeUnknownBackend pins flag validation.
func TestServeUnknownBackend(t *testing.T) {
	var out bytes.Buffer
	if err := serve(strings.NewReader("quit\n"), &out, config{backend: "bogus"}); err == nil {
		t.Fatal("unknown backend must fail")
	}
}

// resultLines filters the protocol's result delivery lines — per-sink
// verdicts and terminal outcomes. Queueing lifecycle lines (queued/
// started) are excluded: a replayed job legitimately re-announces itself
// on the next life, while its results must be delivered exactly once
// across lives.
func resultLines(lines []string) []string {
	return grepLines(lines, `^(sink|done|failed|canceled) `)
}

// TestServeTenantSubmitAndStats drives the multi-tenant protocol: jobs
// submitted under tenants appear in per-tenant stats metric lines with
// their weight and dispatch counters.
func TestServeTenantSubmitAndStats(t *testing.T) {
	path := fixturePath(t)
	script := fmt.Sprintf("submit tenant=acme %s\nsubmit tenant=free %s\nsubmit %s\nquit\n", path, path, path)
	lines := serveLines(t, script, config{workers: 1, storeBudget: 0, backend: "indexed", tenants: "acme=3", stats: true})
	if got := len(grepLines(lines, `^done `)); got != 3 {
		t.Fatalf("%d done lines, want 3:\n%s", got, strings.Join(lines, "\n"))
	}
	for name, weight := range map[string]int{"acme": 3, "free": 1, "default": 1} {
		for _, want := range []string{
			fmt.Sprintf(`^stats metric backdroid_tenant_weight\{tenant="%s"\} %d$`, name, weight),
			fmt.Sprintf(`^stats metric backdroid_tenant_queued\{tenant="%s"\} 0$`, name),
			fmt.Sprintf(`^stats metric backdroid_tenant_submitted_total\{tenant="%s"\} 1$`, name),
			fmt.Sprintf(`^stats metric backdroid_tenant_dispatched_total\{tenant="%s"\} 1$`, name),
		} {
			if got := grepLines(lines, want); len(got) != 1 {
				t.Fatalf("missing %q:\n%s", want, strings.Join(lines, "\n"))
			}
		}
	}
}

// TestServeBadTenantsFlag pins -tenants validation.
func TestServeBadTenantsFlag(t *testing.T) {
	var out bytes.Buffer
	if err := serve(strings.NewReader("quit\n"), &out, config{backend: "indexed", tenants: "acme"}); err == nil {
		t.Fatal("malformed -tenants must fail")
	}
	if err := serve(strings.NewReader("quit\n"), &out, config{backend: "indexed", tenants: "acme=0"}); err == nil {
		t.Fatal("zero weight must fail")
	}
}

// TestServeCrashRecoveryParity is the kill-and-recover drill in-process:
// a journaled service dies mid-queue, a second service over the same
// journal replays the abandoned jobs, and the union of the two lives'
// event lines equals an uninterrupted run's — same ids, same sink
// verdicts, same done lines.
func TestServeCrashRecoveryParity(t *testing.T) {
	path := fixturePath(t)
	jdir := t.TempDir()
	cfg := config{workers: 1, storeBudget: -1, backend: "indexed", stats: true}

	// The three submissions are one app, so whichever job runs first is
	// the cold analysis and the other two are settled hits. Both runs
	// therefore hold jobs 2 and 3 back until job 1's done line, which
	// fixes job 1 as the cold one in every life.
	first := fmt.Sprintf("submit %s\n", path)
	rest := fmt.Sprintf("submit tenant=acme %s\nsubmit %s\n", path, path)

	// Reference: uninterrupted run over its own journal.
	refCfg := cfg
	refCfg.journalDir = t.TempDir()
	want := resultLines(serveAfterFirstDone(t, first, rest+"quit\n", refCfg))
	sort.Strings(want)

	// Life 1: same submissions, then die without draining.
	crashCfg := cfg
	crashCfg.journalDir = jdir
	life1 := serveAfterFirstDone(t, first, rest+"die\n", crashCfg)

	// Life 2: restart over the journal; the startup replay re-enqueues
	// the abandoned jobs under their original ids.
	life2 := serveLines(t, "quit\n", crashCfg)
	if got := grepLines(life2, `^recovered jobs=`); len(got) != 1 {
		t.Fatalf("no startup recovery line:\n%s", strings.Join(life2, "\n"))
	}

	got := append(resultLines(life1), resultLines(life2)...)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("crash+recover results diverge from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Third life: nothing left to replay, and stats expose the journal.
	life3 := serveLines(t, "recover\nstats\nquit\n", crashCfg)
	if got := grepLines(life3, `^recovered jobs=0`); len(got) != 2 {
		t.Fatalf("drained journal must recover 0 jobs (startup + explicit):\n%s", strings.Join(life3, "\n"))
	}
	if got := grepLines(life3, `^stats metric backdroid_journal_pending 0$`); len(got) == 0 {
		t.Fatalf("missing journal stats line:\n%s", strings.Join(life3, "\n"))
	}
}

// serveAfterFirstDone runs serve on first, waits for job 1's done line,
// then feeds rest and returns the whole output.
func serveAfterFirstDone(t *testing.T, first, rest string, cfg config) []string {
	t.Helper()
	w := &notifyWriter{pattern: regexp.MustCompile(`(?m)^done id=1 `), signal: make(chan struct{})}
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- serve(pr, w, cfg) }()
	if _, err := io.WriteString(pw, first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.signal:
	case err := <-errc:
		t.Fatalf("serve exited before job 1 finished: %v\noutput:\n%s", err, strings.Join(w.lines(), "\n"))
	}
	if _, err := io.WriteString(pw, rest); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v\noutput:\n%s", err, strings.Join(w.lines(), "\n"))
	}
	return w.lines()
}

// TestServeRecoverWithoutJournal pins the protocol error.
func TestServeRecoverWithoutJournal(t *testing.T) {
	lines := serveLines(t, "recover\nquit\n", config{workers: 1, storeBudget: -1, backend: "indexed"})
	if got := grepLines(lines, `^error: no journal configured`); len(got) != 1 {
		t.Fatalf("missing recover error:\n%s", strings.Join(lines, "\n"))
	}
}

// notifyWriter collects serve output and closes signal the first time
// the pattern appears in it — the test's way to order an external event
// (a SIGTERM) after an observable point in the stream.
type notifyWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	pattern *regexp.Regexp
	signal  chan struct{}
	fired   bool
}

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if !w.fired && w.pattern.MatchString(w.buf.String()) {
		w.fired = true
		close(w.signal)
	}
	return n, err
}

func (w *notifyWriter) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Split(strings.TrimRight(w.buf.String(), "\n"), "\n")
}

// TestServeSIGTERMDrainsInFlight pins the graceful-shutdown contract: on
// SIGTERM the daemon announces the drain, finishes the jobs already
// running (their result lines still stream), abandons the rest of the
// queue to the journal, and exits cleanly; a restart over the same
// journal replays the abandoned jobs so the union of both lives equals
// an uninterrupted run.
func TestServeSIGTERMDrainsInFlight(t *testing.T) {
	path := fixturePath(t)
	cfg := config{workers: 1, storeBudget: -1, backend: "indexed", stats: true}

	// Reference: the same three submissions, uninterrupted.
	refCfg := cfg
	refCfg.journalDir = t.TempDir()
	script := fmt.Sprintf("submit %s\nsubmit %s\nsubmit %s\nquit\n", path, path, path)
	want := resultLines(serveLines(t, script, refCfg))
	sort.Strings(want)

	// Life 1: submit three jobs on one worker, then SIGTERM once the
	// first done line proves the queue is mid-corpus. The signal handler
	// inside serve catches the signal, so the test process survives.
	sigCfg := cfg
	sigCfg.journalDir = t.TempDir()
	w := &notifyWriter{pattern: regexp.MustCompile(`(?m)^done id=1 `), signal: make(chan struct{})}
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- serve(pr, w, sigCfg) }()
	if _, err := fmt.Fprintf(pw, "submit %s\nsubmit %s\nsubmit %s\n", path, path, path); err != nil {
		t.Fatal(err)
	}
	<-w.signal
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve after SIGTERM: %v", err)
	}
	pw.Close()
	life1 := w.lines()
	if got := grepLines(life1, `^signal terminated: draining in-flight jobs$`); len(got) != 1 {
		t.Fatalf("missing drain announcement:\n%s", strings.Join(life1, "\n"))
	}

	// Life 2: the abandoned jobs replay; the union across lives matches
	// the uninterrupted reference.
	life2 := serveLines(t, "quit\n", sigCfg)
	if got := grepLines(life2, `^recovered jobs=`); len(got) != 1 {
		t.Fatalf("no startup recovery line:\n%s", strings.Join(life2, "\n"))
	}
	got := append(resultLines(life1), resultLines(life2)...)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("SIGTERM+restart results diverge from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestServeDieNode drives the per-node crash drill over the stdin
// protocol: with -nodes, `die node=N` fences one node and the daemon
// keeps serving — the submitted job lands on the survivor, whose id the
// started line carries, and the fleet metric lines expose the kill.
func TestServeDieNode(t *testing.T) {
	path := fixturePath(t)
	script := fmt.Sprintf("die node=1\ndie node=1\ndie node=9\nsubmit %s\nstats\nquit\n", path)
	lines := serveLines(t, script, config{workers: 1, nodes: 2, storeBudget: 0, backend: "indexed", stats: true})
	if got := grepLines(lines, `^node killed node=1$`); len(got) != 1 {
		t.Fatalf("missing kill confirmation:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^error: service: node 1 already dead$`); len(got) != 1 {
		t.Fatalf("double kill must error:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^error: service: node 9 out of range `); len(got) != 1 {
		t.Fatalf("out-of-range kill must error:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^started id=1 app=\S+ node=2 attempt=1$`); len(got) != 1 {
		t.Fatalf("job must start on the surviving node:\n%s", strings.Join(lines, "\n"))
	}
	if got := grepLines(lines, `^done id=1 `); len(got) != 1 {
		t.Fatalf("job must finish on the survivor:\n%s", strings.Join(lines, "\n"))
	}
	for _, want := range []string{
		`^stats metric backdroid_fleet_nodes 2$`,
		`^stats metric backdroid_fleet_live 1$`,
		`^stats metric backdroid_fleet_killed_total 1$`,
	} {
		if got := grepLines(lines, want); len(got) != 2 {
			t.Fatalf("fleet stats must show the kill (stats command + exit stats) %q:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if got := grepLines(lines, `^stats metric backdroid_node_live\{node="1"\} 0$`); len(got) != 2 {
		t.Fatalf("per-node stats must show node 1 dead:\n%s", strings.Join(lines, "\n"))
	}
}

// TestServeDieNodeWithoutFleet pins the protocol error.
func TestServeDieNodeWithoutFleet(t *testing.T) {
	lines := serveLines(t, "die node=1\nquit\n", config{workers: 1, storeBudget: -1, backend: "indexed"})
	if got := grepLines(lines, `^error: service: no fleet configured `); len(got) != 1 {
		t.Fatalf("missing no-fleet error:\n%s", strings.Join(lines, "\n"))
	}
}
