package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Layer: "mavbench", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "sweep", Layer: "portscan", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "probes", Layer: "prefilter", Start: at(40), End: at(90)},
		{ID: 4, Parent: 3, Name: "probe", Layer: "prefilter", Start: at(45), End: at(60)},
		// Overlaps span 4 and runs past its parent: the overlap counts
		// once and the overrun is clipped.
		{ID: 5, Parent: 3, Name: "probe", Layer: "prefilter", Start: at(55), End: at(95)},
	}
	self := SelfTimes(spans)
	for id, want := range map[int]int{1: 20, 2: 30, 3: 5, 4: 15, 5: 40} {
		if got := self[id]; got != time.Duration(want)*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %d ms", id, got, want)
		}
	}
	layers := LayerSelfTimes(spans)
	if layers["portscan"] != 30*time.Millisecond || layers["prefilter"] != 60*time.Millisecond {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestRecorderAndChromeExport(t *testing.T) {
	rec := NewRecorder("table3-mono", 2)
	root := rec.Start(nil, "mavbench", "root")
	child := rec.Start(root, "portscan", "sweep")
	if child.End() < 0 || root.End() < 0 {
		t.Fatal("negative duration")
	}
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "sweep" || spans[0].Parent != spans[1].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Workload != "table3-mono" || spans[0].Rep != 2 {
		t.Errorf("span not stamped: %+v", spans[0])
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 2 || file.TraceEvents[0].Name != "root" || file.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace events = %+v", file.TraceEvents)
	}
	if ev := file.TraceEvents[1]; ev.Cat != "portscan" || ev.Args["workload"] != "table3-mono" || ev.Args["parent"] != float64(spans[1].ID) {
		t.Errorf("child event = %+v", ev)
	}
}
