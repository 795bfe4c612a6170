package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders the recorder — registry counters and gauges,
// registry sketches as histograms, and the per-(class, route) solve
// profiles — in the Prometheus text exposition format (version 0.0.4).
// Durations are exported in seconds. Output order is deterministic:
// registry families sorted by name, profile cells by class label then
// route.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.visit(
		func(c *Counter) {
			writeTypeLine(bw, c.Name(), "counter")
			bw.WriteString(c.Name())
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(c.Load(), 10))
			bw.WriteByte('\n')
		},
		func(g *Gauge) {
			writeTypeLine(bw, g.Name(), "gauge")
			bw.WriteString(g.Name())
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(g.Load(), 10))
			bw.WriteByte('\n')
		},
		func(name string, s *Sketch) {
			writeHistogram(bw, name+"_seconds", "", s)
		},
	)

	// Final (route, outcome) solve counters.
	wroteFinals := false
	for route := 0; route < numRoutes; route++ {
		for out := 0; out < numOutcomes; out++ {
			n := r.finals[route][out].Load()
			if n == 0 {
				continue
			}
			if !wroteFinals {
				writeTypeLine(bw, "solve_outcomes_total", "counter")
				wroteFinals = true
			}
			bw.WriteString("solve_outcomes_total{route=\"")
			bw.WriteString(Route(route).String())
			bw.WriteString("\",outcome=\"")
			bw.WriteString(Outcome(out).String())
			bw.WriteString("\"} ")
			bw.WriteString(strconv.FormatInt(n, 10))
			bw.WriteByte('\n')
		}
	}

	// Per-(class, route) duration histograms and outcome counters.
	snaps := r.SolveStats()
	if len(snaps) > 0 {
		writeTypeLine(bw, "solve_route_duration_seconds", "histogram")
	}
	for i := range snaps {
		snap := &snaps[i]
		labels := "{class=\"" + snap.Class.String() + "\",route=\"" + snap.Route.String() + "\"}"
		r.mu.RLock()
		st := r.routes[classRoute{snap.Class, snap.Route}]
		r.mu.RUnlock()
		if st == nil {
			continue
		}
		uppers, cum := st.sketch.snapshotBuckets()
		for j := range uppers {
			bw.WriteString("solve_route_duration_seconds_bucket{class=\"")
			bw.WriteString(snap.Class.String())
			bw.WriteString("\",route=\"")
			bw.WriteString(snap.Route.String())
			bw.WriteString("\",le=\"")
			bw.WriteString(strconv.FormatFloat(float64(uppers[j])/1e9, 'g', -1, 64))
			bw.WriteString("\"} ")
			bw.WriteString(strconv.FormatInt(cum[j], 10))
			bw.WriteByte('\n')
		}
		bw.WriteString("solve_route_duration_seconds_bucket{class=\"")
		bw.WriteString(snap.Class.String())
		bw.WriteString("\",route=\"")
		bw.WriteString(snap.Route.String())
		bw.WriteString("\",le=\"+Inf\"} ")
		bw.WriteString(strconv.FormatInt(snap.Count, 10))
		bw.WriteByte('\n')
		bw.WriteString("solve_route_duration_seconds_sum")
		bw.WriteString(labels)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatFloat(snap.Sum.Seconds(), 'g', -1, 64))
		bw.WriteByte('\n')
		bw.WriteString("solve_route_duration_seconds_count")
		bw.WriteString(labels)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(snap.Count, 10))
		bw.WriteByte('\n')
	}

	return bw.Flush()
}

func writeTypeLine(w *bufio.Writer, name, kind string) {
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(kind)
	w.WriteByte('\n')
}

func writeHistogram(w *bufio.Writer, name, labels string, s *Sketch) {
	writeTypeLine(w, name, "histogram")
	uppers, cum := s.snapshotBuckets()
	for i := range uppers {
		w.WriteString(name)
		w.WriteString("_bucket{")
		if labels != "" {
			w.WriteString(labels)
			w.WriteByte(',')
		}
		w.WriteString("le=\"")
		w.WriteString(strconv.FormatFloat(float64(uppers[i])/1e9, 'g', -1, 64))
		w.WriteString("\"} ")
		w.WriteString(strconv.FormatInt(cum[i], 10))
		w.WriteByte('\n')
	}
	w.WriteString(name)
	w.WriteString("_bucket{")
	if labels != "" {
		w.WriteString(labels)
		w.WriteByte(',')
	}
	w.WriteString("le=\"+Inf\"} ")
	w.WriteString(strconv.FormatInt(s.Count(), 10))
	w.WriteByte('\n')
	w.WriteString(name)
	if labels != "" {
		w.WriteString("_sum{" + labels + "}")
	} else {
		w.WriteString("_sum")
	}
	w.WriteByte(' ')
	w.WriteString(strconv.FormatFloat(s.Sum().Seconds(), 'g', -1, 64))
	w.WriteByte('\n')
	w.WriteString(name)
	if labels != "" {
		w.WriteString("_count{" + labels + "}")
	} else {
		w.WriteString("_count")
	}
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(s.Count(), 10))
	w.WriteByte('\n')
}
