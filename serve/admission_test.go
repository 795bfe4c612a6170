package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
)

// countingReader counts the Read calls made on it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// serveBody POSTs body to path through svc's handler with the given
// declared length (-1: unknown, as for a chunked body).
func serveBody(svc *Service, path string, body io.Reader, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	return rec
}

// TestAdmissionBodyReads: declared and chunked bodies up to exactly the
// cap are read whole and answered, a chunked body one byte over it gets
// the structured 413, and an empty body gets the decoder's 400.
func TestAdmissionBodyReads(t *testing.T) {
	doc := fig5Spec(t, "")
	limit := int64(len(doc) + 64)
	atCap := append(append([]byte(nil), doc...), bytes.Repeat([]byte(" "), int(limit)-len(doc))...)
	overCap := append(append([]byte(nil), atCap...), ' ')
	emptyErr := decodeSolveSpec(nil, new(SolveSpec))
	svc := New(Config{MaxBodyBytes: limit})
	cases := []struct {
		name          string
		body          []byte
		contentLength int64
		status        int
	}{
		{"declared", doc, int64(len(doc)), http.StatusOK},
		{"chunked", doc, -1, http.StatusOK},
		{"exactly the cap, declared", atCap, limit, http.StatusOK},
		{"exactly the cap, chunked", atCap, -1, http.StatusOK},
		{"one byte over, chunked", overCap, -1, http.StatusRequestEntityTooLarge},
		{"empty", nil, 0, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := serveBody(svc, "/v1/solve", bytes.NewReader(c.body), c.contentLength)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d (%s), want %d", c.name, rec.Code, rec.Body.Bytes(), c.status)
		}
		switch c.status {
		case http.StatusOK:
			var res SolveResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Error != "" || res.Mapping == nil {
				t.Errorf("%s: answer %s (%v), want a mapping", c.name, rec.Body.Bytes(), err)
			}
		case http.StatusRequestEntityTooLarge:
			var body errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
				body.Error != fmt.Sprintf("solve request body exceeds the %d-byte cap", limit) || body.MaxBodyBytes != limit {
				t.Errorf("%s: 413 body %s (%v)", c.name, rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest:
			var body errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error != "decoding solve request: "+emptyErr.Error() {
				t.Errorf("%s: 400 body %s (%v), want the decoder's error", c.name, rec.Body.Bytes(), err)
			}
		}
	}
}

// TestDeclaredOversizeBodyRejectedUnread: a Content-Length past the cap
// gets the structured 413, and a Connection: close, before a byte of the
// body is read.
func TestDeclaredOversizeBodyRejectedUnread(t *testing.T) {
	const limit = 256
	svc := New(Config{MaxBodyBytes: limit})
	for _, path := range []string{"/v1/solve", "/v1/solve/batch", "/v1/remap/stream"} {
		body := &countingReader{r: bytes.NewReader(make([]byte, limit+1))}
		rec := serveBody(svc, path, body, limit+1)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, rec.Code)
		}
		if body.reads != 0 {
			t.Errorf("%s: body read %d times before the 413, want 0", path, body.reads)
		}
		if got := rec.Header().Get("Connection"); got != "close" {
			t.Errorf("%s: Connection = %q, want close", path, got)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.MaxBodyBytes != limit {
			t.Errorf("%s: 413 body %s (%v), want the %d-byte cap", path, rec.Body.Bytes(), err, limit)
		}
	}
}

// TestReadBodyGrowsAsBytesArrive: readBody reads any body whole, and
// into a buffer that already holds it allocates nothing.
func TestReadBodyGrowsAsBytesArrive(t *testing.T) {
	doc := bytes.Repeat([]byte("0123456789"), 15000)
	got, err := readBody(nil, bytes.NewReader(doc))
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("read %d bytes (%v), want the %d-byte body", len(got), err, len(doc))
	}
	r := bytes.NewReader(doc)
	buf := make([]byte, 0, len(doc)+1)
	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset(doc)
		if _, err := readBody(buf, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("read into a buffer that holds the body: %.1f allocs, want 0", allocs)
	}
}

// TestDeclaredSizeReservesNothing: a request that declares a body of
// MaxBodyBytes but sends a few bytes costs memory in proportion to what
// it sent, not to what it declared, so a client cannot make admission
// hold memory it never sends.
func TestDeclaredSizeReservesNothing(t *testing.T) {
	const limit = 8 << 20
	svc := New(Config{MaxBodyBytes: limit})
	short := []byte(`{"pipeline":`)
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rec := serveBody(svc, "/v1/solve", bytes.NewReader(short), limit)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d (%s), want 400 for the truncated body", rec.Code, rec.Body.Bytes())
		}
	}
	if least > limit/64 {
		t.Errorf("a %d-byte body declared as %d bytes allocated %d bytes, want under %d", len(short), limit, least, limit/64)
	}
}

// TestLargeBodyBufferNotPooled: a buffer grown past maxPooledBody is
// left to the GC, so one large body cannot pin its buffer in bodyPool
// for every later small request.
func TestLargeBodyBufferNotPooled(t *testing.T) {
	svc := New(Config{MaxBodyBytes: 4 * maxPooledBody})
	body := bytes.Repeat([]byte(" "), 2*maxPooledBody)
	if rec := serveBody(svc, "/v1/solve", bytes.NewReader(body), int64(len(body))); rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400 for a blank body", rec.Code, rec.Body.Bytes())
	}
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	if cap(*buf) > maxPooledBody {
		t.Errorf("bodyPool holds a %d-byte buffer, want at most %d", cap(*buf), maxPooledBody)
	}
}

// TestDecodedRequestsDoNotAliasBody: admission hands the body buffer back
// to bodyPool as soon as decode returns, so no decoded request may keep
// a byte of it. Each body is read into a pooled buffer and decoded as
// admission does, then the buffer is overwritten; the request must still
// equal a decode of an untouched copy.
func TestDecodedRequestsDoNotAliasBody(t *testing.T) {
	solve := fig5Spec(t, `, "objective": "minFailureProb", "deadlineMillis": 40`)
	batch := []byte(`{"problems": [` + string(solve) + `, ` + string(solve) + `]}`)
	remap := fig5RemapSpec(t, `, "objective": "minFailureProb", "start": {"intervals": [{"first": 0, "last": 1}], "alloc": [[0, 2]]},
		"events": [{"seq": 0, "time": 1, "proc": 0, "kind": 0}, {"seq": 1, "time": 2, "proc": 0, "kind": 1}]`)
	checkNoAlias(t, "SolveSpec", solve, decodeSolveSpec)
	checkNoAlias(t, "BatchRequest", batch, decodeBatchRequest)
	checkNoAlias(t, "RemapSpec", remap, decodeRemapSpec)
}

func checkNoAlias[T any](t *testing.T, what string, doc []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	if err := decode(bytes.Clone(doc), &want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	buf := bodyPool.Get().(*[]byte)
	body, err := readBody((*buf)[:0], bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := decode(body, &got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range body {
		body[i] = '7'
	}
	*buf = body
	bodyPool.Put(buf)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s changed when its body buffer was overwritten:\n got %+v\nwant %+v", what, got, want)
	}
}
