package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/resilience"
)

// admit is the overload-admission middleware wrapped around every POST
// path. It reads the size-capped body and decodes it — once, with the
// endpoint's decode function, which rejects bytes after the top-level
// value — into the endpoint's request type T, and only then asks the
// limiter for a slot: a body past the cap gets a structured 413 and a
// malformed one a 400, both without taking a slot or waiting in the
// queue. A Content-Length past the cap gets its 413 before any byte is
// read. The body is read into a buffer from bodyPool, grown only as its
// bytes arrive (a declared Content-Length reserves nothing, so a client
// cannot make the server hold memory it has not sent), and goes back to
// the pool as soon as decode returns: the decoders copy every value they
// keep. The admission deadline is the request's own deadlineMillis when
// deadlineMillis reports one (> 0), else the service default; the
// limiter bounds concurrent requests, queues a bounded overflow, and
// sheds what cannot be served in time. Sheds are answered before any
// solver work happens, with a structured body and a Retry-After header:
//
//	429 {"error": ..., "retryAfterMillis": ...}  — queue at capacity,
//	    back off and retry
//	503 {"error": ..., "retryAfterMillis": ...}  — the request's own
//	    deadline cannot be met under current load (predicted queue wait
//	    exceeds it, or it expired while queued)
//
// Admitted requests hold their slot until the handler returns (streams
// for their whole life), so the slot count is a true concurrency bound.
func admit[T any](s *Service, what string, decode func([]byte, *T) error, deadlineMillis func(*T) int64, next func(http.ResponseWriter, *http.Request, *T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := s.cfg.MaxBodyBytes
		if r.ContentLength > limit {
			// Close the connection rather than drain the unread body.
			w.Header().Set("Connection", "close")
			writeTooLarge(w, what, limit)
			return
		}
		buf := bodyPool.Get().(*[]byte)
		body, readErr := readBody((*buf)[:0], http.MaxBytesReader(w, r.Body, limit))
		req := new(T)
		var decodeErr error
		if readErr == nil {
			decodeErr = decode(body, req)
		}
		if cap(body) <= maxPooledBody {
			*buf = body
			bodyPool.Put(buf)
		}
		if readErr != nil {
			var tooBig *http.MaxBytesError
			if errors.As(readErr, &tooBig) {
				writeTooLarge(w, what, tooBig.Limit)
				return
			}
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading %s body: %v", what, readErr)})
			return
		}
		if decodeErr != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding %s: %v", what, decodeErr)})
			return
		}

		deadline := s.cfg.DefaultDeadline
		if deadlineMillis != nil {
			if ms := deadlineMillis(req); ms > 0 {
				deadline = millis(ms)
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

// bodyPool recycles request-body buffers (*[]byte, so a Put allocates
// nothing): a Fully Heterogeneous body is O(m²) bytes, the largest
// allocation a request would otherwise make. A warm buffer already holds
// a typical body, so a read allocates nothing.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer admission returns to bodyPool
// (a Fully Heterogeneous body at m ≈ 200): a rare larger body is read
// into a buffer the GC reclaims, instead of pinning it in the pool for
// every later small request.
const maxPooledBody = 1 << 20

// readBody appends everything r yields to buf and returns the extended
// slice. buf grows only when full, at least doubling (from 512 bytes, as
// io.ReadAll starts), so a fresh buffer reaches an m = 80 body in about
// ten growths and its capacity stays proportional to the bytes read.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 512))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeTooLarge answers a body past the limit-byte cap.
func writeTooLarge(w http.ResponseWriter, what string, limit int64) {
	writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
		Error:        fmt.Sprintf("%s body exceeds the %d-byte cap", what, limit),
		MaxBodyBytes: limit,
	})
}

// millis converts a request's millisecond count to a Duration, saturating
// at the Duration range (about ±292 years) instead of wrapping: a wrapped
// product can be a tiny or negative deadline, e.g. 18446744073710 ms
// (about 584 years) would become about 0.45 ms.
func millis(ms int64) time.Duration {
	const perMs = int64(time.Millisecond)
	switch {
	case ms > math.MaxInt64/perMs:
		return math.MaxInt64
	case ms < math.MinInt64/perMs:
		return math.MinInt64
	}
	return time.Duration(ms * perMs)
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
