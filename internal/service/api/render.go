// The stdin wire protocol: line parsing and event/stats rendering.
// The event lines are the exact bytes cmd/backdroidd has always printed
// — the CI resubmission-parity and crash-recovery legs diff this output
// across runs, so any change there is a protocol change, not a
// refactor. The stats lines carry no format of their own: they print
// the metrics registry snapshot, the same series /metrics serves.
package api

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"backdroid/internal/service"
)

// CommandKind types a parsed stdin protocol line.
type CommandKind int

// Stdin protocol commands.
const (
	// CmdNone is a blank or comment line: nothing to do.
	CmdNone CommandKind = iota
	CmdSubmit
	CmdCancel
	CmdStats
	CmdRecover
	CmdDie
	CmdQuit
)

// Command is one parsed stdin protocol line, carrying the typed request
// of its verb.
type Command struct {
	Kind   CommandKind
	Submit SubmitRequest // Kind == CmdSubmit
	Cancel CancelRequest // Kind == CmdCancel
	// Node carries the `die node=N` form: 0 kills the whole process (the
	// classic crash drill), N > 0 fences one fleet node and keeps serving.
	Node int
}

// ParseLine parses one stdin protocol line into a typed command. Parse
// errors carry the exact diagnostic the protocol prints after its
// "error: " prefix.
func ParseLine(line string) (Command, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Command{Kind: CmdNone}, nil
	}
	cmd, arg := line, ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		cmd, arg = line[:i], strings.TrimSpace(line[i+1:])
	}
	switch cmd {
	case "quit", "exit":
		return Command{Kind: CmdQuit}, nil
	case "die":
		if arg == "" {
			return Command{Kind: CmdDie}, nil
		}
		rest, ok := strings.CutPrefix(arg, "node=")
		if !ok {
			return Command{}, fmt.Errorf("die wants no argument or node=N, got %q", arg)
		}
		node, err := strconv.Atoi(rest)
		if err != nil || node < 1 {
			return Command{}, fmt.Errorf("die node wants a positive node id, got %q", rest)
		}
		return Command{Kind: CmdDie, Node: node}, nil
	case "stats":
		return Command{Kind: CmdStats}, nil
	case "recover":
		return Command{Kind: CmdRecover}, nil
	case "cancel":
		id, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return Command{}, fmt.Errorf("cancel wants a job id, got %q", arg)
		}
		return Command{Kind: CmdCancel, Cancel: CancelRequest{ID: id}}, nil
	case "submit":
		return parseSubmit(arg)
	default:
		// A bare path is a submit.
		return parseSubmit(line)
	}
}

// parseSubmit parses the submit argument form, optionally prefixed with
// "tenant=NAME ".
func parseSubmit(arg string) (Command, error) {
	tenant := ""
	if rest, ok := strings.CutPrefix(arg, "tenant="); ok {
		t, path, ok := strings.Cut(rest, " ")
		if !ok {
			return Command{}, fmt.Errorf("submit wants a path")
		}
		tenant, arg = t, strings.TrimSpace(path)
	}
	if arg == "" {
		return Command{}, fmt.Errorf("submit wants a path")
	}
	return Command{Kind: CmdSubmit, Submit: SubmitRequest{Tenant: tenant, Path: arg}}, nil
}

// EventLine renders one scheduler event as the stdin protocol's stable
// single line (trailing newline included). Sink and done lines carry
// the deterministic detection fields first, so diffing two submissions
// of the same app checks reuse end to end; withStats appends the cost
// counters to done lines.
func EventLine(ev service.Event, withStats bool) string {
	switch ev.Kind {
	case service.EventSink:
		s := ev.Sink
		return fmt.Sprintf("sink id=%d app=%s sink=%s caller=%s reachable=%v insecure=%v values=%v\n",
			ev.Job, ev.Name, s.Call.Sink.Method.SootSignature(),
			s.Call.Caller.SootSignature(), s.Reachable, s.Insecure, s.Values)
	case service.EventDone:
		r := ev.Result.BackDroid
		line := fmt.Sprintf("done id=%d app=%s sinks=%d insecure=%d",
			ev.Job, ev.Name, len(r.Sinks), len(r.InsecureSinks()))
		if withStats {
			st := r.Stats
			line += fmt.Sprintf(" units=%d store=%s disassembled=%d builds=%d memo=%d",
				st.WorkUnits, storeState(st), st.DumpLinesDisassembled,
				st.Search.IndexBuilds, st.ForwardMemoHits)
			if st.DeltaRun() {
				line += fmt.Sprintf(" reused=%d rerun=%d", st.SinksReused, st.SinksRerun)
			}
		}
		return line + "\n"
	case service.EventFailed:
		return fmt.Sprintf("failed id=%d app=%s err=%v\n", ev.Job, ev.Name, ev.Err)
	case service.EventStarted:
		if ev.Node > 0 {
			// Fleet deployments label the dispatch; without a fleet the
			// line keeps its historical bytes.
			return fmt.Sprintf("started id=%d app=%s node=%d attempt=%d\n",
				ev.Job, ev.Name, ev.Node, ev.Attempt)
		}
		return fmt.Sprintf("started id=%d app=%s\n", ev.Job, ev.Name)
	default:
		return fmt.Sprintf("%s id=%d app=%s\n", ev.Kind, ev.Job, ev.Name)
	}
}

// StatsLines renders the stats response as the protocol's stats lines:
// one `stats metric <id> <value>` line per registered series, in sorted
// id order. Label values are escaped inside the id, so no tenant name
// can start a line of its own.
func StatsLines(resp StatsResponse) string {
	ids := make([]string, 0, len(resp.Metrics))
	for id := range resp.Metrics {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "stats metric %s %d\n", id, resp.Metrics[id])
	}
	return b.String()
}
