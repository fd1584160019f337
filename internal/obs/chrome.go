package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// chromeEvent is one Chrome trace_event. The exporter emits complete
// ("X") events plus one metadata ("M") event naming the process; the
// validator additionally accepts matched begin/end ("B"/"E") pairs, the
// other spelling of the same format.
//
// Reference: the Trace Event Format document (the format consumed by
// chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds, X only
	PID   uint64         `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of a trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace exports every finished span as Chrome trace_event
// JSON. Each span becomes an "X" (complete) event: ts/dur are in
// microseconds relative to the tracer's start, tid is the span's track
// (so concurrently running spans never partially overlap on one
// timeline row), and span/parent IDs ride in args for tooling that
// wants to rebuild the tree across tracks.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	// Parent-before-child order: by start time, longer span first on
	// ties (a parent sharing its child's start tick must precede it so
	// same-track nesting reads correctly).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Dur > events[j].Dur
	})
	out := chromeTrace{
		TraceEvents: []chromeEvent{{
			Name:  "process_name",
			Phase: "M",
			PID:   1,
			Args:  map[string]any{"name": "ramp"},
		}},
		DisplayTimeUnit: "ms",
	}
	for _, ev := range events {
		args := map[string]any{"span_id": ev.ID}
		if ev.Parent != 0 {
			args["parent_id"] = ev.Parent
		}
		for _, a := range ev.Attrs {
			args[a.Key] = a.Value()
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  ev.Name,
			Phase: "X",
			TS:    float64(ev.Start.Nanoseconds()) / 1e3,
			Dur:   float64(ev.Dur.Nanoseconds()) / 1e3,
			PID:   1,
			TID:   ev.Track,
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateChromeTrace parses data as a Chrome trace and checks the
// minimal schema contract the exporter promises (and chrome://tracing /
// Perfetto require to render sanely):
//
//   - the document is a JSON object with a traceEvents array (the bare
//     JSON-array spelling is accepted too);
//   - every event has a known phase; X/B/E events have a name;
//   - timestamps are finite and non-negative, X durations non-negative;
//   - per (pid, tid), B/E events match like brackets and, with events
//     sorted by ts, X spans nest strictly — a span either contains the
//     next one or ends before it starts, never a partial overlap.
//
// It returns the number of validated events.
func ValidateChromeTrace(data []byte) (int, error) {
	events, err := parseChromeTrace(data)
	if err != nil {
		return 0, err
	}
	type track struct{ pid, tid uint64 }
	byTrack := map[track][]chromeEvent{}
	lastTS := -1.0
	for i, ev := range events {
		switch ev.Phase {
		case "X", "B", "E", "M", "I", "C":
		default:
			return 0, fmt.Errorf("obs: event %d: unknown phase %q", i, ev.Phase)
		}
		if ev.Phase == "M" || ev.Phase == "I" || ev.Phase == "C" {
			continue // metadata/instant/counter events carry no duration
		}
		if ev.Name == "" {
			return 0, fmt.Errorf("obs: event %d: %s event with empty name", i, ev.Phase)
		}
		if ev.TS < 0 {
			return 0, fmt.Errorf("obs: event %d (%s): negative ts %v", i, ev.Name, ev.TS)
		}
		if ev.Phase == "X" && ev.Dur < 0 {
			return 0, fmt.Errorf("obs: event %d (%s): negative dur %v", i, ev.Name, ev.Dur)
		}
		// The exporter emits events sorted by start time; require that
		// monotonicity so a scrambled or clock-skewed trace fails fast.
		if ev.TS < lastTS {
			return 0, fmt.Errorf("obs: event %d (%s): ts %v goes backwards (previous %v)", i, ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		k := track{ev.PID, ev.TID}
		byTrack[k] = append(byTrack[k], ev)
	}
	for k, evs := range byTrack {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].TS < evs[j].TS {
				return true
			}
			if evs[j].TS < evs[i].TS {
				return false
			}
			return evs[i].Dur > evs[j].Dur // parent before child on ties
		})
		var stack []chromeEvent // open B events and containing X spans
		for _, ev := range evs {
			// Pop X spans that ended before this event starts.
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if top.Phase == "X" && top.TS+top.Dur <= ev.TS {
					stack = stack[:len(stack)-1]
					continue
				}
				break
			}
			switch ev.Phase {
			case "B":
				stack = append(stack, ev)
			case "E":
				if len(stack) == 0 || stack[len(stack)-1].Phase != "B" {
					return 0, fmt.Errorf("obs: tid %d: E event %q at ts %v without matching B", k.tid, ev.Name, ev.TS)
				}
				if open := stack[len(stack)-1]; open.Name != ev.Name {
					return 0, fmt.Errorf("obs: tid %d: E event %q at ts %v closes B event %q", k.tid, ev.Name, ev.TS, open.Name)
				}
				stack = stack[:len(stack)-1]
			case "X":
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					if top.Phase == "X" && ev.TS+ev.Dur > top.TS+top.Dur {
						return 0, fmt.Errorf("obs: tid %d: span %q [%v,%v] partially overlaps %q [%v,%v]",
							k.tid, ev.Name, ev.TS, ev.TS+ev.Dur, top.Name, top.TS, top.TS+top.Dur)
					}
				}
				stack = append(stack, ev)
			}
		}
		for _, open := range stack {
			if open.Phase == "B" {
				return 0, fmt.Errorf("obs: tid %d: B event %q at ts %v never closed", k.tid, open.Name, open.TS)
			}
		}
	}
	return len(events), nil
}

// parseChromeTrace decodes either spelling of the format: a trace object
// with a traceEvents array, or the bare event array.
func parseChromeTrace(data []byte) ([]chromeEvent, error) {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		if aerr := json.Unmarshal(data, &doc.TraceEvents); aerr != nil {
			return nil, fmt.Errorf("obs: trace is neither a trace object nor an event array: %v", err)
		}
	}
	return doc.TraceEvents, nil
}

// SpanTime is one span name's line in a trace summary.
type SpanTime struct {
	Name  string
	Count int
	Self  time.Duration // summed duration minus what direct children cover
	Total time.Duration // summed duration
}

// TraceSummary attributes a trace's time to span names.
type TraceSummary struct {
	Wall  time.Duration // first span start to last span end
	Spans []SpanTime    // largest self time first, then by name
}

// SummarizeChromeTrace reads the complete ("X") events of a trace and
// sums, per span name, the spans' durations and self times. A span's
// self time is its duration minus the part of it the union of its
// direct children covers. Children are linked by the span_id and
// parent_id args WriteChromeTrace records, so a child on another track
// (a worker's evaluation under a sweep) counts too; an event without a
// known parent is a root. Spans running concurrently on several tracks
// can make the self times add up to more than the wall time.
func SummarizeChromeTrace(data []byte) (TraceSummary, error) {
	events, err := parseChromeTrace(data)
	if err != nil {
		return TraceSummary{}, err
	}
	var spans []chromeEvent
	byID := map[uint64]int{}
	for _, ev := range events {
		if ev.Phase != "X" {
			continue
		}
		if id, ok := argID(ev.Args, "span_id"); ok {
			byID[id] = len(spans)
		}
		spans = append(spans, ev)
	}
	kids := make([][]int, len(spans))
	for i, ev := range spans {
		if pid, ok := argID(ev.Args, "parent_id"); ok {
			if p, ok := byID[pid]; ok && p != i {
				kids[p] = append(kids[p], i)
			}
		}
	}

	var sum TraceSummary
	index := map[string]int{}
	var first, last float64
	for i, ev := range spans {
		if i == 0 || ev.TS < first {
			first = ev.TS
		}
		last = max(last, ev.TS+ev.Dur)
		k, ok := index[ev.Name]
		if !ok {
			k = len(sum.Spans)
			index[ev.Name] = k
			sum.Spans = append(sum.Spans, SpanTime{Name: ev.Name})
		}
		st := &sum.Spans[k]
		st.Count++
		st.Total += micros(ev.Dur)
		st.Self += micros(ev.Dur - coveredMicros(ev, kids[i], spans))
	}
	if len(spans) > 0 {
		sum.Wall = micros(last - first)
	}
	sort.SliceStable(sum.Spans, func(i, j int) bool {
		if sum.Spans[i].Self != sum.Spans[j].Self {
			return sum.Spans[i].Self > sum.Spans[j].Self
		}
		return sum.Spans[i].Name < sum.Spans[j].Name
	})
	return sum, nil
}

// coveredMicros returns how many microseconds of parent the union of the
// given child spans covers.
func coveredMicros(parent chromeEvent, kids []int, spans []chromeEvent) float64 {
	type interval struct{ lo, hi float64 }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo := max(spans[k].TS, parent.TS)
		hi := min(spans[k].TS+spans[k].Dur, parent.TS+parent.Dur)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum float64
	reach := parent.TS
	for _, v := range ivs {
		if lo := max(v.lo, reach); v.hi > lo {
			sum += v.hi - lo
		}
		reach = max(reach, v.hi)
	}
	return sum
}

// argID reads a span or parent ID from an event's args; JSON numbers
// decode as float64.
func argID(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key].(float64)
	if !ok || v <= 0 {
		return 0, false
	}
	return uint64(v), true
}

// micros converts trace-event microseconds to a Duration.
func micros(us float64) time.Duration {
	return time.Duration(math.Round(us * 1e3))
}
