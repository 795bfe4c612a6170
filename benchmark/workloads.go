package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
	"repro/internal/sim"
	synth "repro/internal/workload"
	"repro/serve"
)

const (
	solvePath  = "/v1/solve"
	streamPath = "/v1/remap/stream"
)

// request is one generated request plus what the checker needs to judge
// its answer. The service only ever sees spec, encoded as JSON.
type request struct {
	path string
	spec any // serve.SolveSpec or serve.RemapSpec
	pipe *pipeline.Pipeline
	plat *platform.Platform
	// minLatency selects the objective; false means minimum failure
	// probability.
	minLatency bool
	// bound is the constraint on the other criterion: the latency bound of
	// a minFP request, the FP bound of a minLatency one (0: unconstrained).
	bound float64
	// base is the objective of the reference mapping answers are scored
	// against: the single interval on the fastest processor, or for a
	// stream its start mapping.
	base float64
	// schedule is a stream's fault events (streams only).
	schedule sim.FaultSchedule
}

// warmupStream is the stream set-up's warm-up requests come from whatever
// the seed, so that set-up does the same work on every run and setup_s
// compares across seeds.
const warmupStream = -1000

// traffic produces one seed's requests. at(stream, i) is request i of a
// stream; the measured sequence is stream seed. Set-up first sends the
// nPrewarm requests prewarm(0..), then the workload's warm-up requests.
type traffic struct {
	at       func(stream int64, i int) request
	prewarm  func(i int) request
	nPrewarm int
}

// workload is one traffic mix. The four mixes stress different layers; see
// why and README.md.
type workload struct {
	name string
	why  string
	// warmup is the number of unmeasured warm-up requests (streams for
	// remap-stream) sent during set-up.
	warmup int
	// sloMillis is the latency limit of one request (streams: of one
	// event), reported as slo_miss_rate.
	sloMillis float64
	// resolveEvery re-solves every k-th optimal answer with the exact
	// solver after the timed phase (0: never).
	resolveEvery int
	// ladderCap bounds the requests a traced run replays.
	ladderCap int
	traffic   func(seed int64) traffic
}

var workloads = []*workload{
	{
		name:         "exact-small",
		why:          "solver-bound tiny requests on the bitmask-DP and branch-and-bound routes; every answer exhaustively optimal",
		warmup:       60,
		sloMillis:    100,
		resolveEvery: 20,
		ladderCap:    500,
		traffic:      func(int64) traffic { return traffic{at: exactSmall} },
	},
	{
		name:      "wide-cold",
		why:       "unique wide fully heterogeneous instances: greedy+anneal and the Theorem 4 relaxation dominate, with 100+ KB bodies",
		warmup:    32,
		sloMillis: 100,
		ladderCap: 500,
		traffic:   func(int64) traffic { return traffic{at: wideCold} },
	},
	{
		name:      "relabeled-repeat",
		why:       "relabelings of a pre-warmed pool: decode, canonicalization, cache lookup and translation carry the load",
		warmup:    32,
		sloMillis: 20,
		ladderCap: 500,
		traffic:   newPool,
	},
	{
		name:      "remap-stream",
		why:       "crash-then-recover fault streams: the reactive controller and warm heuristics.Repair do the work",
		warmup:    16,
		sloMillis: 10,
		ladderCap: 100,
		traffic:   func(int64) traffic { return traffic{at: remapStream} },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix hashes (stream, i) into 64 well-mixed bits (splitmix64).
func mix(stream int64, i int) uint64 {
	z := uint64(stream)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// rngFor returns the generator of request i of a stream: every request
// draws from its own source, so request i is the same whichever client
// sends it and however many requests came before.
func rngFor(stream int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(stream, i))))
}

// Request shapes (platform class, objective, n, m) follow a
// low-discrepancy sequence instead of random draws: request i has the same
// shape in every run and for every seed, and every stretch of a run holds
// nearly the same mix of shapes, so a run's percentiles do not depend on
// its length or its luck. The seed draws every instance's values. The
// sequence is Roberts' R4: coordinate d of point i is frac(0.5 + i/g^(d+1))
// with g^5 = g + 1. Deriving class or objective from i modulo a small
// number instead clusters the heaviest shapes into stretches hundreds of
// requests long.
var alphas = [...]float64{0.8566748838545029, 0.733891856627126, 0.6287067210378086, 0.53859725722361}

// quasi returns coordinate dim of point i of the sequence, in [0, 1).
func quasi(i, dim int) float64 {
	_, f := math.Modf(0.5 + float64(i)*alphas[dim])
	return f
}

// pick maps u in [0, 1) onto the integers lo..hi.
func pick(u float64, lo, hi int) int { return lo + int(u*float64(hi-lo+1)) }

// baseline returns the latency and FP of the single interval on the
// fastest processor, the reference every bound is set against.
func baseline(p *pipeline.Pipeline, pl *platform.Platform) mapping.Metrics {
	m := mapping.NewSingleInterval(p.NumStages(), []int{pl.FastestProc()})
	met, err := mapping.Evaluate(p, pl, m)
	if err != nil {
		panic(err) // a single interval on one processor is always valid
	}
	return met
}

// body encodes the request as the service receives it.
func (r request) body() []byte {
	b, err := json.Marshal(r.spec)
	if err != nil {
		panic(err) // generated specs hold only finite numbers
	}
	return b
}

// solveRequest builds a /v1/solve request. factor > 0 bounds a minFP
// request's latency by factor × the baseline latency; a minLatency request
// is bounded by the baseline FP when boundFP is set.
func solveRequest(p *pipeline.Pipeline, pl *platform.Platform, minLatency bool, factor float64, boundFP bool, deadlineMillis int64) request {
	base := baseline(p, pl)
	r := request{path: solvePath, pipe: p, plat: pl, minLatency: minLatency}
	spec := serve.SolveSpec{Pipeline: p, Platform: pl, DeadlineMillis: deadlineMillis}
	if minLatency {
		spec.Objective = "minLatency"
		r.base = base.Latency
		if boundFP {
			r.bound = base.FailureProb
			spec.MaxFailProb = r.bound
		}
	} else {
		spec.Objective = "minFailureProb"
		r.base = base.FailureProb
		if factor > 0 {
			r.bound = factor * base.Latency
			spec.MaxLatency = r.bound
		}
	}
	r.spec = spec
	return r
}

// exactSmall alternates Comm-Hom failure-heterogeneous instances, which
// the router sends to the bitmask DP, with Fully-Het ones under the
// 5M-mapping exact budget (branch and bound). Each class cycles through its
// (n, m) cells in a fixed order, so every stretch of a run holds the same
// shapes; in particular the 128 sessions the service still caches at the
// end, whose suffix-memo tables (up to 160 KB each) make up most of
// heap_live_mb. A quarter minimize latency under the baseline FP, the rest
// minimize FP under 1.5× the baseline latency. Comm-Hom stops at m = 12:
// the DP's min-latency side grows ~3× per processor and takes seconds from
// m = 13.
func exactSmall(stream int64, i int) request {
	rng := rngFor(stream, i)
	var inst synth.Instance
	if c := i / 2; i%2 == 0 {
		c %= 20 // n ∈ [2, 5] × m ∈ [8, 12]
		inst = synth.Random(rng, platform.CommHomogeneous, 2+c/5, 8+c%5)
	} else {
		c %= 12 // n ∈ [2, 3] × m ∈ [6, 11]
		inst = synth.Random(rng, platform.FullyHeterogeneous, 2+c/6, 6+c%6)
	}
	return solveRequest(inst.Pipeline, inst.Platform, quasi(i, 1) < 0.25, 1.5, true, 5000)
}

// wideCold: unique wide Fully-Het instances; ¾ minFP at 1.5× the baseline
// latency (greedy + anneal), ¼ unconstrained minLatency answered by the
// Theorem 4 relaxation. The minLatency quarter redraws instances until
// the relaxation is tight: the ~3% of wide instances where it is not cost
// 10–40× a typical request (greedy + anneal for latency, then beam
// search) and allocate 100–600 MB each, so the handful a run happens to
// draw would set its mean and tail.
func wideCold(stream int64, i int) request {
	rng := rngFor(stream, i)
	n, m := pick(quasi(i, 2), 8, 32), pick(quasi(i, 3), 48, 128)
	minLatency := quasi(i, 1) < 0.25
	for {
		inst := synth.Random(rng, platform.FullyHeterogeneous, n, m)
		if !minLatency {
			return solveRequest(inst.Pipeline, inst.Platform, false, 1.5, false, 0)
		}
		if b, err := poly.IntervalLatencyBounds(inst.Pipeline, inst.Platform); err == nil && b.Tight {
			return solveRequest(inst.Pipeline, inst.Platform, true, 0, false, 0)
		}
	}
}

const (
	poolSize    = 32
	relabelings = 8
)

var poolFactors = [...]float64{1.25, 1.5, 2, 3}

// pool is relabeled-repeat's shared state: 32 instances, each with 8
// processor relabelings.
type pool struct {
	inst  []synth.Instance
	perms [][][]int
}

// poolStream draws the pool's instances. They are part of the workload's
// definition, the same for every seed: with only 16 wide instances, the
// few most expensive ones a seed happened to draw would set the tail.
const poolStream = 0x5eed

// newPool builds the pool: 16 wide-cold-like instances, 8 exact-small-like
// ones and 8 Comm-Hom failure-homogeneous ones (Algorithm 3, the poly
// route). The seed draws each instance's relabelings. Every request
// minimizes FP under a latency bound.
func newPool(seed int64) traffic {
	rng := rngFor(poolStream, 0)
	relabel := rngFor(seed, -1)
	pl := &pool{}
	for k := 0; k < poolSize; k++ {
		qn, qm := quasi(k, 2), quasi(k, 3)
		var inst synth.Instance
		switch {
		case k < 16:
			inst = synth.Random(rng, platform.FullyHeterogeneous, pick(qn, 8, 32), pick(qm, 48, 128))
		case k < 24 && k%2 == 0:
			inst = synth.Random(rng, platform.CommHomogeneous, pick(qn, 2, 5), pick(qm, 8, 12))
		case k < 24:
			inst = synth.Random(rng, platform.FullyHeterogeneous, pick(qn, 2, 3), pick(qm, 6, 11))
		default:
			inst = synth.RandomFailureHomogeneous(rng, pick(qn, 4, 16), pick(qm, 16, 128))
		}
		perms := make([][]int, relabelings)
		for r := range perms {
			perms[r] = relabel.Perm(inst.Platform.NumProcs())
		}
		pl.inst = append(pl.inst, inst)
		pl.perms = append(pl.perms, perms)
	}
	return traffic{at: pl.at, prewarm: pl.prewarm, nPrewarm: poolSize * len(poolFactors)}
}

// prewarm solves pool instance i/4 at factor i%4 in its drawn labeling.
func (pl *pool) prewarm(i int) request {
	inst := pl.inst[i/len(poolFactors)]
	return solveRequest(inst.Pipeline, inst.Platform, false, poolFactors[i%len(poolFactors)], false, 0)
}

// at: 9 requests in 10 repeat a pre-warmed (instance, factor) key through
// one of the instance's relabelings; the others use a factor drawn from
// [1.1, 4], which never repeats, so the solver runs and the answer is
// stored.
func (pl *pool) at(stream int64, i int) request {
	rng := rngFor(stream, i)
	k := pick(quasi(i, 0), 0, poolSize-1)
	perm := pl.perms[k][rng.Intn(relabelings)]
	factor := poolFactors[pick(quasi(i, 2), 0, len(poolFactors)-1)]
	if quasi(i, 1) < 0.1 {
		factor = 1.1 + rng.Float64()*2.9
	}
	inst := pl.inst[k]
	return solveRequest(inst.Pipeline, inst.Platform.Permute(perm), false, factor, false, 0)
}

// remapStream: a Fully-Het instance deployed as 4 intervals × 3 replicas
// on its 12 fastest processors, minFP under 1.5× that mapping's latency.
// The schedule crashes the 16 fastest processors one by one, then
// recovers them in the same order.
func remapStream(stream int64, i int) request {
	rng := rngFor(stream, i)
	inst := synth.Random(rng, platform.FullyHeterogeneous, pick(quasi(i, 2), 8, 16), pick(quasi(i, 3), 48, 96))
	p, pl := inst.Pipeline, inst.Platform
	n := p.NumStages()
	fastest := pl.ProcsBySpeedDesc()
	start := &mapping.Mapping{}
	for j := 0; j < 4; j++ {
		start.Intervals = append(start.Intervals, mapping.Interval{First: j * n / 4, Last: (j+1)*n/4 - 1})
		procs := append([]int(nil), fastest[3*j:3*j+3]...)
		sort.Ints(procs)
		start.Alloc = append(start.Alloc, procs)
	}
	met, err := mapping.Evaluate(p, pl, start)
	if err != nil {
		panic(err) // 4 non-empty intervals on 12 distinct processors
	}
	var schedule sim.FaultSchedule
	for k, u := range fastest[:16] {
		schedule = append(schedule, sim.FaultEvent{Time: float64(k + 1), Proc: u, Kind: sim.FaultCrash})
	}
	for k, u := range fastest[:16] {
		schedule = append(schedule, sim.FaultEvent{Time: float64(17 + k), Proc: u, Kind: sim.FaultRecover})
	}
	schedule = schedule.Renumber()
	bound := 1.5 * met.Latency
	return request{
		path: streamPath,
		spec: serve.RemapSpec{
			Pipeline: p, Platform: pl, Objective: "minFailureProb", MaxLatency: bound,
			Start: start, Events: schedule,
		},
		pipe: p, plat: pl, bound: bound, base: met.FailureProb,
		schedule: schedule,
	}
}
