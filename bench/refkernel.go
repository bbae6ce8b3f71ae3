package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
)

// The reference kernel is the benchmark's yardstick for machine speed. It
// is interleaved with the measured operations, and every timing is scaled
// by how fast the kernel ran right beside it relative to its nominal rate.
//
// It has two parts, and a workload mixes them in its own proportion (refMix):
//
//   - encode does the kind of work the program does — encoding/json over a
//     pointer tree, then a hash-map insert per 48-byte window of the output —
//     because a tight ALU loop does not follow the slowdowns the program sees
//     on a shared host (it held 447-476 iterations/ms while qps halved). It
//     allocates nothing per iteration: an earlier version that allocated its
//     output and its map keys was drafted into the program's collection
//     cycles (GC assist), so its speed followed the program's allocation rate
//     — with GOGC=400 the "machine" read 1.12 against 0.80 — and the
//     correction hid four fifths of a 30% gain. The kernel must read the
//     machine, not the collector.
//   - hash is that tight loop: FNV-1a over the encoded bytes, one multiply
//     waiting for the last. The host's slow episodes (a neighbour on the
//     sibling hardware thread: encode takes 1.3 to 1.5 times as long for tens
//     of seconds, hash 1.00 to 1.03 times) slow the program less than encode
//     alone, because part of the program waits on memory and on dependent
//     instructions, as hash does. A slowdown that stretches every instruction
//     alike (stolen time, a lower clock) stretches both parts alike, so the
//     mix stays right for it; an exponent on an encode-only factor would not.
//
// README.md has the calibration behind each workload's mix.
//
// FROZEN: the two parts, their input, the nominal rates and the workloads'
// mixes define the unit of every corrected metric. Changing any of them
// rebases every number the benchmark has ever reported;
// TestRefKernelChecksum pins the output.

// RefNominalPerS and RefHashNominalPerS are the rates, in encode iterations
// and hash passes per second, at which the machine counts as running at
// "nominal speed" (factor 1.0); between slow episodes the development host
// runs both parts about 1.1 times as fast. They only fix the unit of the
// corrected metrics.
const (
	RefNominalPerS     = 3000.0
	RefHashNominalPerS = 6450.0
)

// refMix is one unit of reference work: so many encode iterations followed
// by so many hash passes. The encode share of a unit's nominal time is the
// share of the workload's time that slows down as encode does.
type refMix struct{ encode, hash int }

// nominal is the time one unit takes at nominal speed.
func (m refMix) nominal() time.Duration {
	s := float64(m.encode)/RefNominalPerS + float64(m.hash)/RefHashNominalPerS
	return time.Duration(s * float64(time.Second))
}

// refNode is one node of the kernel's fixed input tree.
type refNode struct {
	Label string     `json:"label"`
	Path  string     `json:"path"`
	Start int        `json:"start"`
	Text  string     `json:"text,omitempty"`
	Kids  []*refNode `json:"kids,omitempty"`
}

// refTree builds the kernel's input: a 4-ary tree of depth 5 plus 36 extra
// leaves under the root, 1,401 nodes, filled from a fixed linear
// congruential sequence.
func refTree() *refNode {
	state := uint32(20100301)
	next := func() uint32 {
		state = state*1664525 + 1013904223
		return state >> 8
	}
	n := 0
	var build func(path string, depth int) *refNode
	build = func(path string, depth int) *refNode {
		n++
		node := &refNode{Label: "n" + strconv.Itoa(int(next()%97)), Start: n}
		node.Path = path + "." + node.Label
		if depth == 0 {
			node.Text = "v" + strconv.Itoa(int(next()%100000))
			return node
		}
		for i := 0; i < 4; i++ {
			node.Kids = append(node.Kids, build(node.Path, depth-1))
		}
		return node
	}
	root := build("ref", 5)
	for i := 0; i < 36; i++ {
		root.Kids = append(root.Kids, build(root.Path, 0))
	}
	return root
}

const refWindow = 48 // bytes of output per map key

// refKernel holds the mix, the fixed input and the buffers every iteration
// reuses.
type refKernel struct {
	mix  refMix
	tree *refNode
	buf  bytes.Buffer
	enc  *json.Encoder
	seen map[[refWindow]byte]int32
	sum  uint64 // the last hash pass's result
}

func newRefKernel(mix refMix) *refKernel {
	k := &refKernel{mix: mix, tree: refTree(), seen: make(map[[refWindow]byte]int32)}
	k.enc = json.NewEncoder(&k.buf)
	k.iter() // size the buffer and the map once
	return k
}

// iter is one encode iteration: it encodes the tree and indexes the output
// by fixed-width windows.
func (k *refKernel) iter() {
	k.buf.Reset()
	if err := k.enc.Encode(k.tree); err != nil {
		panic("bench: reference kernel: " + err.Error()) // fixed input; cannot fail
	}
	out := k.buf.Bytes()
	clear(k.seen)
	var key [refWindow]byte
	for off := 0; off+refWindow <= len(out); off += refWindow {
		copy(key[:], out[off:off+refWindow])
		k.seen[key] = int32(off)
	}
}

// hashPass is one hash pass: FNV-1a over the encoded bytes, byte by byte.
func (k *refKernel) hashPass() {
	h := uint64(14695981039346656037)
	for _, b := range k.buf.Bytes() {
		h = (h ^ uint64(b)) * 1099511628211
	}
	k.sum = h
}

// checksum folds one iteration's output — the hash of the bytes, their
// number and the number of distinct windows — into a single number.
func (k *refKernel) checksum() uint64 {
	k.iter()
	k.hashPass()
	return k.sum ^ uint64(len(k.seen))<<32 ^ uint64(k.buf.Len())
}

// run does n units of the mix and returns the time they took. Slices are
// counted in units, not time, so that the work the kernel interleaves with
// the program's is the same on a fast machine and a slow one.
func (k *refKernel) run(n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		for j := 0; j < k.mix.encode; j++ {
			k.iter()
		}
		for j := 0; j < k.mix.hash; j++ {
			k.hashPass()
		}
	}
	return time.Since(start)
}

// speed is how fast the machine ran while the kernel did n units in took,
// relative to nominal speed: 0.5 means half speed.
func (k *refKernel) speed(n int, took time.Duration) float64 {
	return float64(n) * float64(k.mix.nominal()) / float64(took)
}
