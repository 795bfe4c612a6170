package exact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// replicationFreeGolden is the SHA-256 of replicationFreeDigest's stream.
// Any change to the replication-free search — its task order, its visit
// order within a task, its pruning or its arithmetic — that moves one
// returned mapping or one metric bit changes it. The digest was first
// recorded while m ≤ 64 searches without replication still ran the uint64
// engine, and re-recorded when FP moved to mapping.AccumFailure: every
// mapping and latency bit stayed, only FP low bits moved.
const replicationFreeGolden = "a5a479555d3d3c96bc325bc9eb64d31de5fc5e42378112b8105e5abbd9df8135"

// replicationFreeDigest hashes MinLatencyInterval's mapping and metric
// bits, at Workers 1 and 2, over a seeded corpus of communication-
// homogeneous (random and speed-quantized, so task-order tie-breaks
// decide) and fully heterogeneous platforms at m ∈ {1, 8, 33, 62, 64}.
func replicationFreeDigest(t *testing.T) string {
	h := sha256.New()
	var word [8]byte
	putFloat := func(x float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
		h.Write(word[:])
	}
	for _, m := range []int{1, 8, 33, 62, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(m) + seed))
			n := 2 + rng.Intn(3)
			p := pipeline.Random(rng, n, 1, 10, 1, 10)
			pls := []*platform.Platform{
				platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*4),
				quantizedCommHom(rng, m, 3),
				platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20),
			}
			for pi, pl := range pls {
				for _, workers := range []int{1, 2} {
					res, err := MinLatencyInterval(p, pl, Options{Workers: workers})
					if err != nil {
						t.Fatalf("m=%d seed=%d platform %d workers %d: %v", m, seed, pi, workers, err)
					}
					fmt.Fprintf(h, "m=%d seed=%d pl=%d w=%d %s|", m, seed, pi, workers, res.Mapping)
					putFloat(res.Metrics.Latency)
					putFloat(res.Metrics.FailureProb)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplicationFreeGolden pins every replication-free answer bit for
// bit: the search path that produces them may change, the answers may
// not.
func TestReplicationFreeGolden(t *testing.T) {
	if got := replicationFreeDigest(t); got != replicationFreeGolden {
		t.Fatalf("replication-free digest %s, want %s", got, replicationFreeGolden)
	}
}
