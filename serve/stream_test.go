package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// postStream posts a RemapSpec and decodes the NDJSON response into
// records.
func postStream(t *testing.T, srv *httptest.Server, body []byte) (int, []RemapEvent) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/remap/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []RemapEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev RemapEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("record %d is not JSON: %v\n%s", len(events), err, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, events
}

func fig5RemapSpec(t *testing.T, extra string) []byte {
	t.Helper()
	p, pl := workload.Fig5()
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	plj, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"pipeline": %s, "platform": %s, "objective": "minFailureProb", "maxLatency": 22%s}`, pj, plj, extra))
}

func TestRemapStreamEndToEnd(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// Crash processors 0 and 2, then recover 0. The service solves the
	// deployed mapping itself.
	spec := fig5RemapSpec(t, `, "events": [
		{"seq": 0, "time": 1, "proc": 0, "kind": 0},
		{"seq": 1, "time": 2, "proc": 2, "kind": 0},
		{"seq": 2, "time": 3, "proc": 0, "kind": 1}
	]`)
	status, events := postStream(t, srv, spec)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(events) != 4 {
		t.Fatalf("got %d records, want 3 repairs + 1 terminal", len(events))
	}
	down := map[int]bool{}
	for i, ev := range events[:3] {
		if ev.Error != "" {
			t.Fatalf("record %d carries error %q", i, ev.Error)
		}
		if ev.Seq != i {
			t.Errorf("record %d has seq %d", i, ev.Seq)
		}
		if ev.Mapping == nil {
			t.Fatalf("record %d has no mapping", i)
		}
		if ev.Event.Kind == 0 {
			down[ev.Event.Proc] = true
		} else {
			delete(down, ev.Event.Proc)
		}
		for _, procs := range ev.Mapping.Alloc {
			for _, u := range procs {
				if down[u] {
					t.Errorf("record %d assigns failed processor %d", i, u)
				}
			}
		}
	}
	final := events[3]
	if !final.Done || final.Events != 3 {
		t.Errorf("terminal record = %+v, want done with 3 events", final)
	}
	// After recovering processor 0, only 2 is down.
	if got := events[2].Down; len(got) != 1 || got[0] != 2 {
		t.Errorf("final down set = %v, want [2]", got)
	}
}

func TestRemapStreamRandomCampaignDeterministic(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	spec := fig5RemapSpec(t, `, "randomEvents": 8, "seed": 3`)
	_, a := postStream(t, srv, spec)
	_, b := postStream(t, srv, spec)
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("got %d and %d records, want 9 each", len(a), len(b))
	}
	for i := range a[:8] {
		aj, _ := json.Marshal(a[i].Mapping)
		bj, _ := json.Marshal(b[i].Mapping)
		if !bytes.Equal(aj, bj) {
			t.Errorf("record %d differs across identical seeded campaigns", i)
		}
	}
}

// TestRemapStreamIgnoresTuningMembers: a stream body that carries the
// tuning members streams the same records as the body without them;
// only the wall times may differ.
func TestRemapStreamIgnoresTuningMembers(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	const events = `, "events": [
		{"seq": 0, "time": 1, "proc": 0, "kind": 0},
		{"seq": 1, "time": 2, "proc": 2, "kind": 0},
		{"seq": 2, "time": 3, "proc": 0, "kind": 1}
	]`
	_, plain := postStream(t, srv, fig5RemapSpec(t, events))
	_, tuned := postStream(t, srv, fig5RemapSpec(t, events+tuningMembers))
	if len(plain) != 4 {
		t.Fatalf("got %d records, want 3 repairs + 1 terminal", len(plain))
	}
	if len(tuned) != len(plain) {
		t.Fatalf("tuned stream has %d records, plain %d", len(tuned), len(plain))
	}
	for i := range plain {
		a, b := plain[i], tuned[i]
		a.RepairMicros, b.RepairMicros = 0, 0
		a.ElapsedMillis, b.ElapsedMillis = 0, 0
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Errorf("record %d: tuned %s, plain %s", i, bj, aj)
		}
	}
}

func TestRemapStreamBadRequests(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// Regression: random campaigns on degenerate platforms used to reach
	// the schedule generator before any validation and spin a handler
	// goroutine forever. They must be rejected up front (and the requests
	// below must all return promptly).
	p, _ := workload.Fig5()
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	oneProc := []byte(fmt.Sprintf(`{"pipeline": %s, "platform": {"speed":[1],"failProb":[0.1],"b":[[0]],"bIn":[1],"bOut":[1]}, "randomEvents": 4}`, pj))
	// An invalid platform never reaches the handler: Platform.UnmarshalJSON
	// validates at decode time, so this 400s in the decoder.
	emptyPlat := []byte(fmt.Sprintf(`{"pipeline": %s, "platform": {"speed":[]}, "randomEvents": 4}`, pj))
	crash := `, "events": [{"seq": 0, "time": 1, "proc": 0, "kind": 0}]`

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed JSON", []byte("{nope"), http.StatusBadRequest},
		{"no schedule", fig5RemapSpec(t, ""), http.StatusBadRequest},
		{"bad processor id", fig5RemapSpec(t, `, "events": [{"proc": 99, "kind": 0}]`), http.StatusBadRequest},
		{"missing instance", []byte(`{"randomEvents": 3}`), http.StatusBadRequest},
		{"random campaign on 1 processor", oneProc, http.StatusBadRequest},
		{"random campaign on invalid platform", emptyPlat, http.StatusBadRequest},
		// A malformed start used to commit the stream (200) and fail in
		// band; it is validated before the first record.
		{"start with a processor id past m", fig5RemapSpec(t, `, "start": {"intervals": [{"first": 0, "last": 1}], "alloc": [[999]]}`+crash), http.StatusBadRequest},
		{"start covering too few stages", fig5RemapSpec(t, `, "start": {"intervals": [{"first": 0, "last": 0}], "alloc": [[0]]}`+crash), http.StatusBadRequest},
		{"start covering too many stages", fig5RemapSpec(t, `, "start": {"intervals": [{"first": 0, "last": 2}], "alloc": [[0]]}`+crash), http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, _ := postStream(t, srv, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.want)
		}
	}
}

// TestRemapStreamRejectsOutOfRangeBounds: a latency bound below 0 or a
// failure-probability bound outside [0, 1] gets a 400 before the stream
// commits, with or without a start mapping. With a start, such bounds
// used to commit the stream (200) and report violations against them;
// without one, the initial solve failed them with a 422.
func TestRemapStreamRejectsOutOfRangeBounds(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	const start = `, "start": {"intervals": [{"first": 0, "last": 1}], "alloc": [[0]]}`
	const crash = `, "events": [{"seq": 0, "time": 1, "proc": 0, "kind": 0}]`
	for _, bound := range []string{`"maxFailProb": 2`, `"maxFailProb": -1`, `"maxLatency": -5`} {
		for _, form := range []string{"", start} {
			// The later "maxLatency" member overrides fig5RemapSpec's 22.
			status, events := postStream(t, srv, fig5RemapSpec(t, ", "+bound+form+crash))
			if status != http.StatusBadRequest {
				t.Errorf("%s (start: %v): status = %d (%d records), want 400", bound, form != "", status, len(events))
			}
		}
	}
}

// TestRemapStreamRandomEventsCapped: a random campaign longer than
// maxRandomEvents is rejected with a structured 400 before its schedule is
// allocated (an unchecked 2^60 used to panic in makeslice and surface as a
// recovered 500).
func TestRemapStreamRandomEventsCapped(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	for _, n := range []int{1 << 60, maxRandomEvents + 1} {
		resp, err := srv.Client().Post(srv.URL+"/v1/remap/stream", "application/json",
			bytes.NewReader(fig5RemapSpec(t, fmt.Sprintf(`, "randomEvents": %d`, n))))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("randomEvents %d: status = %d (%+v), want 400", n, resp.StatusCode, body)
		}
		if decErr != nil || !strings.Contains(body.Error, "randomEvents") {
			t.Errorf("randomEvents %d: 400 body = %+v (%v), want an error naming randomEvents", n, body, decErr)
		}
	}
}

func TestOversizedBodyReturnsStructured413(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxBodyBytes: 256}))
	defer srv.Close()

	big := []byte(fmt.Sprintf(`{"pipeline": {"w": [%s1], "delta": []}}`, strings.Repeat("1, ", 300)))
	for _, path := range []string{"/v1/solve", "/v1/solve/batch", "/v1/remap/stream"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: 413 body is not JSON: %v", path, err)
		}
		resp.Body.Close()
		if body.Error == "" || body.MaxBodyBytes != 256 {
			t.Errorf("%s: 413 body = %+v, want error text and the 256-byte cap", path, body)
		}
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Config{})
	// Wire a panicking route through the service's own mux so the
	// request passes the real recovery path.
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if !strings.Contains(body.Error, "kaboom") {
		t.Errorf("500 body = %+v, want the panic value", body)
	}

	// The server survives and keeps answering; the panic is counted.
	st := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if st.Panics != 1 {
		t.Errorf("stats.panics = %d, want 1", st.Panics)
	}
}
