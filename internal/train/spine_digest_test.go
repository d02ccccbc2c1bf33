package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
)

// spineDigest is the SHA-256 of every trained parameter and every batched
// prediction over the cases in TestTrainingSpineDigest. It was taken before
// the mat kernels were register-blocked, so any change to the per-element
// floating-point operation sequence of the forward or backward kernels
// shows up here as a different digest.
const spineDigest = "317e18392544d6a4096c38b4fd8934e5ba2a1b96fe9d517cb4499844009c5869"

// TestTrainingSpineDigest trains three small networks end to end (Xavier
// init, full-batch RPROP, 50 epochs) and hashes the resulting parameters
// and predictions. The shapes straddle the kernels' register blocks: odd
// and even sample counts, output counts off a multiple of four, and a
// two-hidden-layer net. It runs once per RPROP implementation the host
// supports, so one machine pins the kernel and the Go loop that defines it.
func TestTrainingSpineDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-add and round differently", runtime.GOARCH)
	}
	forEachRPROP(t, func(t *testing.T) {
		cases := []struct {
			sizes []int
			n     int
		}{
			{[]int{4, 16, 5}, 259},
			{[]int{4, 24, 24, 5}, 64},
			{[]int{3, 7, 2}, 33},
		}
		h := sha256.New()
		var buf [8]byte
		put := func(vs []float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		for c, tc := range cases {
			seed := uint64(2006 + c)
			net := nn.NewNetwork(tc.sizes, nn.Logistic{Alpha: 1}, nn.Identity{})
			nn.XavierInit(net, rng.New(seed))

			data := rng.New(seed + 1)
			xs := make([][]float64, tc.n)
			ys := make([][]float64, tc.n)
			for i := range xs {
				xs[i] = make([]float64, tc.sizes[0])
				for j := range xs[i] {
					xs[i][j] = data.Uniform(-1, 1)
				}
				ys[i] = make([]float64, tc.sizes[len(tc.sizes)-1])
				for j := range ys[i] {
					ys[i][j] = data.Uniform(-1, 1)
				}
			}

			cfg := DefaultConfig()
			cfg.MaxEpochs = 50
			tr, err := newTrainer(cfg, rng.New(seed+2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fitRows(tr, net, xs, ys, nil, nil); err != nil {
				t.Fatal(err)
			}
			put(net.Params())
			put(net.ForwardBatch(new(mat.Matrix).CopyRows(xs), &nn.BatchWorkspace{}).Data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != spineDigest {
			t.Fatalf("training spine digest = %s, want %s", got, spineDigest)
		}
	})
}
