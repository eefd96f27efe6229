package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
	"backdroid/internal/service"
	"backdroid/internal/simtime"
	"backdroid/internal/testapps"
)

// fixturePath writes the deterministic fixture app to disk and returns
// its container path.
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

// newTestDispatcher builds a dispatcher with a settled tier over the
// given options.
func newTestDispatcher(opts *core.Options) *Dispatcher {
	return NewDispatcher(service.Config{
		Workers: 2,
		Options: opts,
		Reports: service.NewReportStore(0),
	})
}

// collectJob drains the subscription until the job's terminal event and
// returns every event of that job, in order.
func collectJob(t *testing.T, sub *Subscription, id int64) []service.Event {
	t.Helper()
	var evs []service.Event
	for {
		ev, ok := sub.Next()
		if !ok {
			t.Fatalf("subscription ended before job %d finished (got %d events)", id, len(evs))
		}
		if int64(ev.Job) != id {
			continue
		}
		evs = append(evs, ev)
		switch ev.Kind {
		case service.EventDone, service.EventFailed, service.EventCanceled:
			return evs
		}
	}
}

// TestDispatcherLifecycleAndSettledResubmission drives the typed API the
// way both front ends do: submit, watch events, query terminal status —
// then resubmits and requires a settled serving with the flat O(1)
// charge and an identical detection surface.
func TestDispatcherLifecycleAndSettledResubmission(t *testing.T) {
	path := fixturePath(t)
	d := newTestDispatcher(nil)
	defer d.Close()
	sub := d.Subscribe()
	defer sub.Close()

	resp, err := d.Submit(SubmitRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if resp.APIVersion != Version || resp.State != StateQueued || resp.ID != 1 {
		t.Fatalf("submit response = %+v", resp)
	}
	evs := collectJob(t, sub, resp.ID)
	if evs[len(evs)-1].Kind != service.EventDone {
		t.Fatalf("terminal event = %v", evs[len(evs)-1].Kind)
	}
	st, err := d.Query(QueryRequest{ID: resp.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Report == nil || len(st.Report.Sinks) == 0 {
		t.Fatalf("terminal status = %+v", st)
	}
	if st.Report.Stats == nil || st.Report.Stats.SettledLookups != 0 {
		t.Fatalf("cold run stats = %+v", st.Report.Stats)
	}

	again, err := d.Submit(SubmitRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	collectJob(t, sub, again.ID)
	st2, err := d.Query(QueryRequest{ID: again.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Report == nil || st2.Report.Stats == nil {
		t.Fatalf("settled status = %+v", st2)
	}
	if got := st2.Report.Stats; got.SettledLookups != 1 || got.Units != simtime.SettledLookupUnits ||
		got.Disassembled != 0 || got.Builds != 0 || got.Store != "hit" {
		t.Fatalf("settled stats = %+v, want the flat settled serving", got)
	}
	if !reflect.DeepEqual(st.Report.Sinks, st2.Report.Sinks) {
		t.Fatal("settled resubmission changed the sink surface")
	}
	snap := d.Metrics().Snapshot()
	if hits, _ := snap.Get("backdroid_reports_hits_total"); hits != 1 {
		t.Fatalf("report store hits = %d, want 1", hits)
	}
	if puts, _ := snap.Get("backdroid_reports_puts_total"); puts != 1 {
		t.Fatalf("report store puts = %d, want 1", puts)
	}

	// Unknown jobs and double cancels answer with typed errors.
	if _, err := d.Query(QueryRequest{ID: 999}); err == nil {
		t.Fatal("query of unknown job must fail")
	}
	if _, err := d.Cancel(CancelRequest{ID: resp.ID}); err == nil {
		t.Fatal("cancel of a finished job must fail")
	}
}

// TestParseLineProtocol pins the stdin wire parser, including the exact
// error diagnostics the daemon prints.
func TestParseLineProtocol(t *testing.T) {
	cases := []struct {
		line    string
		want    Command
		wantErr string
	}{
		{line: "", want: Command{Kind: CmdNone}},
		{line: "   # comment", want: Command{Kind: CmdNone}},
		{line: "quit", want: Command{Kind: CmdQuit}},
		{line: "exit", want: Command{Kind: CmdQuit}},
		{line: "die", want: Command{Kind: CmdDie}},
		{line: "stats", want: Command{Kind: CmdStats}},
		{line: "recover", want: Command{Kind: CmdRecover}},
		{line: "cancel 42", want: Command{Kind: CmdCancel, Cancel: CancelRequest{ID: 42}}},
		{line: "cancel nope", wantErr: `cancel wants a job id, got "nope"`},
		{line: "submit /a/b.apk", want: Command{Kind: CmdSubmit, Submit: SubmitRequest{Path: "/a/b.apk"}}},
		{line: "submit tenant=acme /a/b.apk", want: Command{Kind: CmdSubmit, Submit: SubmitRequest{Tenant: "acme", Path: "/a/b.apk"}}},
		{line: "submit", wantErr: "submit wants a path"},
		{line: "submit tenant=acme", wantErr: "submit wants a path"},
		{line: "/bare/path.apk", want: Command{Kind: CmdSubmit, Submit: SubmitRequest{Path: "/bare/path.apk"}}},
	}
	for _, tc := range cases {
		got, err := ParseLine(tc.line)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseLine(%q) err = %v, want %q", tc.line, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseLine(%q): %v", tc.line, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

// FuzzParseLine: ParseLine never panics on an arbitrary stdin line, an
// error carries no command, and a parsed submit names a non-empty,
// trimmed path and a tenant without spaces. Seeds are the protocol
// lines, under testdata/fuzz/FuzzParseLine.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseLine(line)
		if err != nil {
			if cmd != (Command{}) {
				t.Fatalf("ParseLine(%q) failed (%v) but returned %+v", line, err, cmd)
			}
			return
		}
		if cmd.Kind != CmdSubmit {
			return
		}
		p := cmd.Submit.Path
		if p == "" || p != strings.TrimSpace(p) || strings.Contains(cmd.Submit.Tenant, " ") {
			t.Fatalf("ParseLine(%q) = %+v: bad submit", line, cmd.Submit)
		}
	})
}

// FuzzSubmitBody drives POST /v1/jobs with an arbitrary body against a
// closed dispatcher, so no job ever runs and no fuzzed path is opened.
// The gateway must not panic. A body that decodes into a request the
// field checks accept reaches the scheduler, which answers 503; any other
// body gets 400, or 413 past MaxRequestBytes. An accepted request turns
// into a valid Job: a BackDroid analysis of the container at its path,
// journaled under that path, in the request's tenant, labelled with the
// request's name or else the path's basename without ".apk".
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"path":"/a/b.apk"}`,
		`{"tenant":"paid","path":"/a/b.apk","name":"b"}`,
		`{"tenant":"evil\ndone id=77","path":"x.apk"}`,
		`{"path":""}`,
		`{"path":"/dir/"}`,
		`{"path":"/a.apk","extra":1}`,
		`{"path":7}`,
		`{"path":"\u0000\ud800.apk"}`,
		`{"path":"/a.apk"} trailing`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	d := NewDispatcher(service.Config{Workers: 1})
	d.Close()
	h := NewHandler(d)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if len(body) > MaxRequestBytes {
			if c := rec.Code; c != http.StatusRequestEntityTooLarge && c != http.StatusBadRequest && c != http.StatusServiceUnavailable {
				t.Fatalf("oversized body: status %d", c)
			}
			return
		}
		var req SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body %q: status %d, want 400", body, rec.Code)
			}
			return
		}
		job, err := req.job()
		if err != nil {
			if req.Path != "" || rec.Code != http.StatusBadRequest {
				t.Fatalf("request %+v rejected (%v) with status %d", req, err, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("accepted request %+v: status %d, want 503 from the closed scheduler", req, rec.Code)
		}
		name := req.Name
		if name == "" {
			base := req.Path[strings.LastIndexByte(req.Path, '/')+1:]
			name = strings.TrimSuffix(base, ".apk")
		}
		if job.Spec != req.Path || job.Tenant != req.Tenant || job.Name != name ||
			job.Source == nil || !job.RunBackDroid || job.RunWholeApp || job.RunCallGraph ||
			job.Options != nil || job.Done != nil {
			t.Fatalf("request %+v became job %+v", req, job)
		}
	})
}

// TestHTTPGateway drives the REST surface end to end over a real
// analysis: submit, poll status, fetch the settled report by content
// address, read stats — plus the error statuses.
func TestHTTPGateway(t *testing.T) {
	path := fixturePath(t)
	opts := core.DefaultOptions()
	d := newTestDispatcher(&opts)
	defer d.Close()
	sub := d.Subscribe()
	defer sub.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	post := func(body string) SubmitResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs status = %d", resp.StatusCode)
		}
		var out SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	getJSON := func(url string, wantCode int, v any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, wantCode)
		}
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	sr := post(fmt.Sprintf(`{"path":%q}`, path))
	collectJob(t, sub, sr.ID)
	var st JobStatus
	getJSON(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, sr.ID), http.StatusOK, &st)
	if st.State != StateDone || st.Report == nil || len(st.Report.Sinks) == 0 {
		t.Fatalf("job status = %+v", st)
	}

	// The settled report is addressable by its content-address pair.
	app, err := apk.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	appFP := dexdump.AppFingerprint(app.Dexes)
	optFP := service.OptionsFingerprint(&opts)
	var rr ReportResponse
	getJSON(fmt.Sprintf("%s/v1/reports/%016x/%016x", srv.URL, appFP, optFP), http.StatusOK, &rr)
	if len(rr.Report.Sinks) != len(st.Report.Sinks) {
		t.Fatalf("report endpoint sinks = %d, job status has %d", len(rr.Report.Sinks), len(st.Report.Sinks))
	}
	// Encoded carries the exact canonical bytes the store addresses.
	key := service.ReportKey{App: appFP, Options: optFP}
	enc, ok := d.Scheduler().Reports().Encoded(key)
	if !ok || !bytes.Equal(rr.Encoded, enc) {
		t.Fatal("report endpoint's Encoded differs from the store's canonical bytes")
	}
	dec, err := service.DecodeReport(rr.Encoded)
	if err != nil || len(dec.Sinks) != len(st.Report.Sinks) {
		t.Fatalf("served encoding undecodable: %v", err)
	}

	var stats StatsResponse
	getJSON(srv.URL+"/v1/stats", http.StatusOK, &stats)
	if got := stats.Metrics["backdroid_reports_puts_total"]; got != 1 {
		t.Fatalf("stats backdroid_reports_puts_total = %d (metrics %v)", got, stats.Metrics)
	}
	if got := stats.Metrics["backdroid_dispatched_total"]; got != 1 {
		t.Fatalf("stats backdroid_dispatched_total = %d", got)
	}

	// Error surfaces: bad id, unknown job, unknown report, bad body,
	// cancel conflict.
	getJSON(srv.URL+"/v1/jobs/notanid", http.StatusBadRequest, nil)
	getJSON(srv.URL+"/v1/jobs/999", http.StatusNotFound, nil)
	getJSON(fmt.Sprintf("%s/v1/reports/%016x/%016x", srv.URL, appFP, optFP+1), http.StatusNotFound, nil)
	getJSON(srv.URL+"/v1/reports/zz/zz", http.StatusBadRequest, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit body status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", srv.URL, sr.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of finished job status = %d, want 409", dresp.StatusCode)
	}
}

// TestHTTPEventStream pins the SSE surface: a subscriber sees the full
// queued/started/sinks/done bracket of a job submitted after it
// connected, as JSON payloads mirroring the scheduler events.
// TestHTTPSubmitBodyBounded pins the request bound: a submit body past
// MaxRequestBytes (here a multi-MiB path) is answered 413 and submits
// nothing.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	d := newTestDispatcher(nil)
	defer d.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	body := `{"path":"/` + strings.Repeat("a", 4<<20) + `.apk"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit answered %d, want 413", resp.StatusCode)
	}
	if _, err := d.Query(QueryRequest{ID: 1}); err == nil {
		t.Fatal("the oversized submit created a job")
	}
}

func TestHTTPEventStream(t *testing.T) {
	path := fixturePath(t)
	d := newTestDispatcher(nil)
	defer d.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(srv.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	if _, err := d.Submit(SubmitRequest{Path: path}); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	sinks := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev EventJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.APIVersion != Version || ev.ID != 1 {
			t.Fatalf("SSE payload = %+v", ev)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "sink" {
			if ev.Sink == nil || ev.Sink.Sink == "" {
				t.Fatalf("sink event without a sink payload: %+v", ev)
			}
			sinks++
		}
		if ev.Kind == "done" {
			break
		}
	}
	if len(kinds) < 3 || kinds[0] != "queued" || kinds[1] != "started" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("SSE event bracket = %v", kinds)
	}
	if sinks == 0 {
		t.Fatal("no sink events streamed over SSE")
	}
}

// TestHTTPStdinParity is the two-front-ends-one-dispatcher contract: the
// same app submitted through the stdin parser and through the HTTP
// gateway produces identical sink verdicts (identical stdin wire lines,
// id stripped), and the HTTP submission is served settled from the stdin
// submission's report.
func TestHTTPStdinParity(t *testing.T) {
	path := fixturePath(t)
	d := newTestDispatcher(nil)
	defer d.Close()
	sub := d.Subscribe()
	defer sub.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	// Front end A: the stdin protocol.
	cmd, err := ParseLine("submit " + path)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := d.Submit(cmd.Submit)
	if err != nil {
		t.Fatal(err)
	}
	evsA := collectJob(t, sub, ra.ID)

	// Front end B: the HTTP gateway, same dispatcher.
	body := fmt.Sprintf(`{"path":%q}`, path)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rb SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	evsB := collectJob(t, sub, rb.ID)

	// Identical wire rendering, job id stripped — the same parity check
	// CI runs between a curl'd submission and a piped one.
	strip := func(evs []service.Event) string {
		var b strings.Builder
		re := regexp.MustCompile(`id=\d+ `)
		for _, ev := range evs {
			if ev.Kind == service.EventSink {
				b.WriteString(re.ReplaceAllString(EventLine(ev, false), ""))
			}
		}
		return b.String()
	}
	if strip(evsA) == "" {
		t.Fatal("stdin submission streamed no sinks")
	}
	if strip(evsA) != strip(evsB) {
		t.Fatalf("front ends diverged:\n--- stdin ---\n%s--- http ---\n%s", strip(evsA), strip(evsB))
	}

	stB, err := d.Query(QueryRequest{ID: rb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if stB.Report == nil || stB.Report.Stats == nil || stB.Report.Stats.SettledLookups != 1 {
		t.Fatalf("HTTP resubmission stats = %+v, want settled service from the stdin job", stB.Report)
	}
	stA, err := d.Query(QueryRequest{ID: ra.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stA.Report.Sinks, stB.Report.Sinks) {
		t.Fatal("front ends returned different sink surfaces")
	}
}

// TestDispatcherCloseEndsSubscriptions pins shutdown: Close drains, ends
// every subscription after its final event, and later Submits and
// Subscribes refuse.
func TestDispatcherCloseEndsSubscriptions(t *testing.T) {
	d := newTestDispatcher(nil)
	sub := d.Subscribe()
	d.Close()
	if _, ok := sub.Next(); ok {
		t.Fatal("subscription still delivering after Close")
	}
	if _, err := d.Submit(SubmitRequest{Path: "/x.apk"}); err == nil {
		t.Fatal("submit after Close must fail")
	}
	if d.Subscribe() != nil {
		t.Fatal("subscribe after Close must return nil")
	}
	d.Close() // idempotent
}
