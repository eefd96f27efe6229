package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// WriteChrome renders the trace as Chrome trace-event JSON (the
// {"traceEvents":[...]} wrapper Perfetto and chrome://tracing load).
// The export is canonical: events are sorted by (job, sub, start,
// duration, name, category, args), fields are emitted in a fixed
// order, and physical node ids never appear — so two runs of the same
// seed, whose per-track charge sequences are deterministic, produce
// byte-identical files regardless of goroutine scheduling.
//
// Layout: each job is a process (pid = job id); each of its tracks is
// a thread (tid = sub + 1) — "main" for the job's own range, one
// "chunk@N" thread per stolen or re-pended sink chunk, so steal spans
// render nested under their victim job's process. Timestamps are
// charged simtime units (shown by the viewers as microseconds).
func WriteChrome(w io.Writer, t *Trace) error {
	spans := t.Spans()
	counters := t.Counters()
	sort.Slice(spans, func(i, j int) bool { return spanLess(spans[i], spans[j]) })
	sort.Slice(counters, func(i, j int) bool {
		a, b := counters[i], counters[j]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Sub != b.Sub {
			return a.Sub < b.Sub
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Value < b.Value
	})

	// Metadata: one process per job, one named thread per track, in
	// first-appearance order over the sorted events.
	type track struct {
		job int64
		sub int
	}
	var jobs []int64
	seenJob := make(map[int64]bool)
	var tracks []track
	seenTrack := make(map[track]bool)
	note := func(job int64, sub int) {
		if !seenJob[job] {
			seenJob[job] = true
			jobs = append(jobs, job)
		}
		tr := track{job, sub}
		if !seenTrack[tr] {
			seenTrack[tr] = true
			tracks = append(tracks, tr)
		}
	}
	for _, s := range spans {
		note(s.Job, s.Sub)
	}
	for _, c := range counters {
		note(c.Job, c.Sub)
	}

	var b strings.Builder
	b.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, job := range jobs {
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"job %d"}}`, job, job))
	}
	for _, tr := range tracks {
		name := "main"
		if tr.sub > 0 {
			name = fmt.Sprintf("chunk@%d", tr.sub-1)
		}
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			tr.job, tr.sub+1, jsonString(name)))
	}
	for _, s := range spans {
		var e strings.Builder
		fmt.Fprintf(&e, `{"name":%s`, jsonString(s.Name))
		if s.Cat != "" {
			fmt.Fprintf(&e, `,"cat":%s`, jsonString(s.Cat))
		}
		if s.Dur < 0 {
			fmt.Fprintf(&e, `,"ph":"i","s":"t","ts":%d`, s.Start)
		} else {
			fmt.Fprintf(&e, `,"ph":"X","ts":%d,"dur":%d`, s.Start, s.Dur)
		}
		fmt.Fprintf(&e, `,"pid":%d,"tid":%d`, s.Job, s.Sub+1)
		if len(s.Args) > 0 {
			e.WriteString(`,"args":{`)
			args := append([]Arg(nil), s.Args...)
			sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
			for i, a := range args {
				if i > 0 {
					e.WriteByte(',')
				}
				fmt.Fprintf(&e, "%s:%s", jsonString(a.Key), jsonString(a.Value))
			}
			e.WriteByte('}')
		}
		e.WriteByte('}')
		emit(e.String())
	}
	for _, c := range counters {
		name := fmt.Sprintf("units job%d/main", c.Job)
		if c.Sub > 0 {
			name = fmt.Sprintf("units job%d/chunk@%d", c.Job, c.Sub-1)
		}
		emit(fmt.Sprintf(`{"name":%s,"ph":"C","ts":%d,"pid":%d,"tid":%d,"args":{"units":%d}}`,
			jsonString(name), c.TS, c.Job, c.Sub+1, c.Value))
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteChromeFile writes the trace as Chrome trace-event JSON to a new
// file at path, replacing any file there.
func WriteChromeFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLess is the canonical export order. Node is deliberately not a
// key (and not exported at all): it is the only scheduling-dependent
// span field.
func spanLess(a, b Span) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	return argsKey(a.Args) < argsKey(b.Args)
}

func argsKey(args []Arg) string {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// jsonString renders s as a JSON string literal via encoding/json —
// deterministic and always valid JSON (unlike strconv.Quote's \x
// escapes).
func jsonString(s string) string {
	data, err := json.Marshal(s)
	if err != nil {
		// A Go string never fails to marshal; keep the signature simple.
		return `""`
	}
	return string(data)
}
