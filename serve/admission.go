package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/resilience"
)

// admit is the overload-admission middleware wrapped around every POST
// path. It reads the size-capped body and decodes it — once, with
// json.Unmarshal, so bytes after the top-level value are an error —
// into the endpoint's request type T, and only then asks the limiter for
// a slot: a body past the cap gets a structured 413 and a malformed one a
// 400, both without taking a slot or waiting in the queue. The admission
// deadline is the request's own deadlineMillis when deadlineMillis
// reports one (> 0), else the service default; the limiter bounds
// concurrent requests, queues a bounded overflow, and sheds what cannot
// be served in time. Sheds are answered before any solver work happens,
// with a structured body and a Retry-After header:
//
//	429 {"error": ..., "retryAfterMillis": ...}  — queue at capacity,
//	    back off and retry
//	503 {"error": ..., "retryAfterMillis": ...}  — the request's own
//	    deadline cannot be met under current load (predicted queue wait
//	    exceeds it, or it expired while queued)
//
// Admitted requests hold their slot until the handler returns (streams
// for their whole life), so the slot count is a true concurrency bound.
func admit[T any](s *Service, what string, deadlineMillis func(*T) int64, next func(http.ResponseWriter, *http.Request, *T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
					Error:        fmt.Sprintf("%s body exceeds the %d-byte cap", what, tooBig.Limit),
					MaxBodyBytes: tooBig.Limit,
				})
				return
			}
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading %s body: %v", what, err)})
			return
		}
		req := new(T)
		if err := json.Unmarshal(body, req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding %s: %v", what, err)})
			return
		}

		deadline := s.cfg.DefaultDeadline
		if deadlineMillis != nil {
			if ms := deadlineMillis(req); ms > 0 {
				deadline = time.Duration(ms) * time.Millisecond
			}
		}
		actx := r.Context()
		if deadline > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(actx, deadline)
			defer cancel()
		}

		release, err := s.limiter.Acquire(actx)
		if err != nil {
			s.writeShed(w, err)
			return
		}
		defer release()
		next(w, r, req)
	}
}

// writeShed maps a limiter refusal to its HTTP shape and counts it.
func (s *Service) writeShed(w http.ResponseWriter, err error) {
	s.shed.Inc()
	shed := resilience.AsShed(err)
	if shed == nil { // defensive: the limiter only refuses with ShedError
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusTooManyRequests
	if shed.Reason == resilience.ShedDeadline {
		status = http.StatusServiceUnavailable
	}
	retryMillis := shed.RetryAfter.Milliseconds()
	if retryMillis < 1 {
		retryMillis = 1
	}
	secs := (retryMillis + 999) / 1000
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, errorBody{
		Error:            fmt.Sprintf("overloaded: %s", shed.Reason),
		RetryAfterMillis: retryMillis,
	})
}
