package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro"
	"repro/internal/mapping"
)

// POST /v1/remap/stream — failure-reactive re-mapping as a stream.
//
// The request carries the instance, an optional deployed mapping, and a
// fault schedule (explicit events or a seeded random campaign). The
// response is newline-delimited JSON (application/x-ndjson), flushed
// after every record: one RemapEvent per fault event as its repair
// completes, then a terminal record with "done": true. Errors after the
// stream has started arrive in-band as a record carrying "error" (the
// HTTP status is already committed).
//
// Consumers should treat a dropped connection as retryable: reconnect
// with exponential backoff and resubmit the remaining schedule, using
// the last received record's down-processor set as the starting failure
// state (see docs/api.md for the full reconnect recipe).

// RemapSpec is the request of POST /v1/remap/stream.
type RemapSpec struct {
	// Pipeline and Platform define the instance (same encodings as
	// SolveSpec).
	Pipeline *repro.Pipeline `json:"pipeline"`
	Platform *repro.Platform `json:"platform"`
	// Objective is "minFailureProb" (default) or "minLatency"; the other
	// criterion is bounded by MaxLatency / MaxFailProb.
	Objective   string  `json:"objective,omitempty"`
	MaxLatency  float64 `json:"maxLatency,omitempty"`
	MaxFailProb float64 `json:"maxFailProb,omitempty"`
	// Start is the deployed mapping the campaign starts from. When
	// absent, the service solves the instance first and starts from that
	// optimum (the initial solve shares the stream deadline).
	Start *repro.Mapping `json:"start,omitempty"`
	// Events is the fault schedule to replay, in time order.
	Events repro.FaultSchedule `json:"events,omitempty"`
	// RandomEvents, when Events is empty, generates a seeded stochastic
	// campaign of this many crash/recovery events instead (at most
	// 65,536; more is a 400).
	RandomEvents int `json:"randomEvents,omitempty"`
	// Seed draws the RandomEvents campaign (default 1); nothing else
	// reads it.
	Seed int64 `json:"seed,omitempty"`
	// RepairDeadlineMillis caps each per-event repair (0 = the
	// controller default, 50ms). Repairs past it degrade to the best
	// mapping found, graded partial.
	RepairDeadlineMillis int64 `json:"repairDeadlineMillis,omitempty"`
	// DeadlineMillis caps the whole stream (0 = the service default).
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// RemapEvent is one NDJSON record of the stream: a repair (per fault
// event), or the terminal summary when Done is true.
type RemapEvent struct {
	// Seq numbers the stream's records from 0.
	Seq int `json:"seq"`
	// Event is the fault event that triggered this repair (absent on the
	// terminal record).
	Event *repro.FaultEvent `json:"event,omitempty"`
	// Mapping is the mapping installed after the event; it never assigns
	// a failed processor, except on an all-processors-failed hold record
	// (Method reports the hold), where the last mapping is kept until a
	// recovery arrives.
	Mapping *repro.Mapping `json:"mapping,omitempty"`
	// Latency and FailureProb are the installed mapping's metrics.
	Latency     float64 `json:"latency,omitempty"`
	FailureProb float64 `json:"failureProb,omitempty"`
	// Certainty grades the repair ("heuristic", exact grades after
	// escalation, "partial (canceled)" past the repair deadline).
	Certainty string `json:"certainty,omitempty"`
	// Method names the repair route taken.
	Method string `json:"method,omitempty"`
	// Changed is false when the event required no re-mapping.
	Changed bool `json:"changed,omitempty"`
	// Violation is set when the configured bound can no longer be met on
	// the surviving platform (the mapping is the best degraded answer).
	Violation *repro.RemapViolation `json:"violation,omitempty"`
	// Down lists the processors failed after this event.
	Down []int `json:"down,omitempty"`
	// RepairMicros is the server-side repair time for this event.
	RepairMicros int64 `json:"repairMicros,omitempty"`
	// Done marks the terminal record; Events and ElapsedMillis summarize
	// the campaign.
	Done          bool  `json:"done,omitempty"`
	Events        int   `json:"events,omitempty"`
	ElapsedMillis int64 `json:"elapsedMillis,omitempty"`
	// Error reports an in-band failure (stream already committed).
	Error string `json:"error,omitempty"`
}

// maxRandomEvents caps RandomEvents. The schedule is allocated up front,
// so an unchecked count could ask for gigabytes before the first event;
// 65,536 events is far fewer than the explicit events a default 8 MiB
// body can carry (over 400,000 at about 20 bytes each), so the cap admits
// no campaign a client could not already send by hand.
const maxRandomEvents = 1 << 16

func (s *Service) handleRemapStream(w http.ResponseWriter, r *http.Request, spec *RemapSpec) {
	s.requests.Inc()
	if spec.Pipeline == nil || spec.Platform == nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "request needs both \"pipeline\" and \"platform\""})
		return
	}
	objective, err := parseObjective(spec.Objective)
	if err == nil {
		err = mapping.CheckBounds(spec.MaxLatency, spec.MaxFailProb)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Create (and thereby validate) the session before touching the fault
	// schedule: schedule generation must only ever see a platform that
	// passed validation. The stream builds its own session, in the
	// requester's labels: every emitted mapping and fault id must be in
	// that labeling, and a crash-then-recover campaign seldom repeats.
	sess, err := s.newSession(spec.Pipeline, spec.Platform)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	m := spec.Platform.NumProcs()
	schedule := spec.Events
	if len(schedule) == 0 {
		if spec.RandomEvents <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "request needs \"events\" or a positive \"randomEvents\""})
			return
		}
		if spec.RandomEvents > maxRandomEvents {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("\"randomEvents\" is capped at %d", maxRandomEvents)})
			return
		}
		if m < 2 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "\"randomEvents\" campaigns need a platform with at least 2 processors"})
			return
		}
		seed := spec.Seed
		if seed == 0 {
			seed = 1
		}
		schedule = repro.NewRandomFaultSchedule(rand.New(rand.NewSource(seed)), m, repro.RandomFaultConfig{Events: spec.RandomEvents})
	}
	if err := schedule.Validate(m); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid fault schedule: %v", err)})
		return
	}
	// The controller validates start as well, but only after the stream
	// is committed; a malformed start must get its 400 before that.
	if spec.Start != nil {
		if err := spec.Start.Validate(spec.Pipeline.NumStages(), m); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid \"start\" mapping: %v", err)})
			return
		}
	}

	ctx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if spec.DeadlineMillis > 0 {
		deadline = millis(spec.DeadlineMillis)
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	start := spec.Start
	if start == nil {
		res, err := sess.Solve(ctx, repro.SolveRequest{
			Objective:   objective,
			MaxLatency:  spec.MaxLatency,
			MaxFailProb: spec.MaxFailProb,
		})
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: fmt.Sprintf("solving the starting mapping: %v", err)})
			return
		}
		start = res.Mapping
	}

	// The stream is committed from here on: every outcome — including
	// failures — arrives as an NDJSON record.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	seq := 0
	emit := func(rec RemapEvent) error {
		rec.Seq = seq
		seq++
		if err := enc.Encode(rec); err != nil {
			return err
		}
		return rc.Flush()
	}

	streamStart := time.Now()
	cfg := repro.RemapConfig{
		Objective:   objective,
		MaxLatency:  spec.MaxLatency,
		MaxFailProb: spec.MaxFailProb,
		Deadline:    millis(spec.RepairDeadlineMillis),
	}
	// The stream's session has no per-call deadline, so the controller
	// runs under ctx as it is; each record goes out as its repair
	// completes and nothing is collected.
	c, err := sess.NewRemapController(start, cfg)
	if err == nil {
		err = c.Campaign(ctx, schedule, func(rep repro.RemapResult) error {
			ev := rep.Event
			return emit(RemapEvent{
				Event:        &ev,
				Mapping:      rep.Mapping,
				Latency:      rep.Metrics.Latency,
				FailureProb:  rep.Metrics.FailureProb,
				Certainty:    rep.Certainty.String(),
				Method:       rep.Method,
				Changed:      rep.Changed,
				Violation:    rep.Violation,
				Down:         rep.Down,
				RepairMicros: rep.Elapsed.Microseconds(),
			})
		})
	}
	if err != nil {
		// The connection may already be gone (emit error); writing the
		// in-band record is best effort either way.
		_ = emit(RemapEvent{Error: err.Error(), Done: true, Events: seq, ElapsedMillis: time.Since(streamStart).Milliseconds()})
		return
	}
	_ = emit(RemapEvent{Done: true, Events: seq, ElapsedMillis: time.Since(streamStart).Milliseconds()})
}
