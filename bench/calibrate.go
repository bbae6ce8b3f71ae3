package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Calibration fits a workload's reference mix (workloadSpec.ref): the share
// of its time that the host's slow episodes stretch as they stretch the
// kernel's encode part. It serves the workload's rounds as a run does, but
// times the two parts of every reference slice apart, and so needs a run
// long enough to meet both a quiet stretch and a slow episode:
//
//	bash bench/run.sh --workload corpus_rw --seed 2 --seconds 130 --calibrate

const (
	// calibBlock is the number of chunks whose medians make one observation
	// (about 1.5 s): single chunks are too noisy to fit.
	calibBlock = 200
	// calibEncode and calibHash are the slice's parts: about 0.6 ms each.
	calibEncode, calibHash = 2, 4
	// calibSlow is the encode slowdown from which a block counts as part of
	// a slow episode.
	calibSlow = 1.2
)

// calibObs is one observation: the time of the encode part, of the hash
// part and of the op chunk that followed them.
type calibObs struct{ encode, hash, chunk float64 }

// runCalibration prints the fitted encode share of cfg's workload.
func runCalibration(cfg runConfig, w io.Writer) (err error) {
	p, err := prepare(cfg)
	if err != nil {
		return err
	}
	inp := p.inp
	cnt := &counts{}
	ref := newRefKernel(cfg.spec.ref)
	first := inp.ops[0].idx
	_, in, err := coldBuilds(cfg.spec, cfg.seed, 1, inp.requests[first], &p.expect[first], ref, cnt)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	warm(in, p)

	encode := newRefKernel(refMix{encode: calibEncode})
	hash := newRefKernel(refMix{hash: calibHash})
	var obs []calibObs
	size := cfg.spec.chunkOps
	for i := 0; i+size <= len(inp.ops); i += size {
		o := calibObs{encode: float64(encode.run(1)), hash: float64(hash.run(1))}
		start := time.Now()
		for _, op := range inp.ops[i : i+size] {
			in.serveOp(inp, op)
			in.checkOp(op, nil)
		}
		o.chunk = float64(time.Since(start))
		obs = append(obs, o)
	}
	if cnt.failed > 0 {
		return fmt.Errorf("calibration: %d of %d ops failed", cnt.failed, cnt.attempted)
	}
	fit, err := fitEncodeShare(blockMedians(obs, calibBlock))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s: %d blocks of %d chunks, %d in slow episodes (encode at %.2fx its quiet time or more)\n",
		cfg.spec.name, fit.blocks, calibBlock, fit.slow, calibSlow)
	fmt.Fprintf(w, "encode share %.2f (the mix in use has %.2f)\n", fit.share, encodeShare(cfg.spec.ref))
	fmt.Fprintf(w, "corrected chunk time in the slow blocks, relative to quiet: %.3f with encode alone, %.3f with the fitted share\n",
		fit.biasEncodeOnly, fit.biasFitted)
	return nil
}

// encodeShare is the encode part's share of a mix's nominal time.
func encodeShare(m refMix) float64 {
	return float64(refMix{encode: m.encode}.nominal()) / float64(m.nominal())
}

// blockMedians folds the observations into blocks of n and returns every
// block's medians.
func blockMedians(obs []calibObs, n int) []calibObs {
	var out []calibObs
	col := make([]float64, n)
	med := func(blk []calibObs, get func(calibObs) float64) float64 {
		for i, o := range blk {
			col[i] = get(o)
		}
		return median(col)
	}
	for i := 0; i+n <= len(obs); i += n {
		blk := obs[i : i+n]
		out = append(out, calibObs{
			encode: med(blk, func(o calibObs) float64 { return o.encode }),
			hash:   med(blk, func(o calibObs) float64 { return o.hash }),
			chunk:  med(blk, func(o calibObs) float64 { return o.chunk }),
		})
	}
	return out
}

// shareFit is the outcome of fitEncodeShare.
type shareFit struct {
	blocks, slow int
	share        float64
	// biasEncodeOnly and biasFitted are the mean corrected chunk time of the
	// slow blocks relative to the quiet ones, under a mix of encode alone
	// and under the fitted mix: 1.0 is a perfect correction.
	biasEncodeOnly, biasFitted float64
}

// fitEncodeShare fits chunk = share·encode + (1-share)·hash by least
// squares, every time relative to its mean over the quiet blocks: the
// quarter of the blocks in which encode ran fastest.
func fitEncodeShare(blocks []calibObs) (shareFit, error) {
	if len(blocks) < 8 {
		return shareFit{}, fmt.Errorf("calibration: %d blocks, want at least 8: raise --seconds", len(blocks))
	}
	byEncode := append([]calibObs(nil), blocks...)
	sort.Slice(byEncode, func(a, b int) bool { return byEncode[a].encode < byEncode[b].encode })
	var quiet calibObs
	n := len(blocks) / 4
	for _, o := range byEncode[:n] {
		quiet.encode += o.encode / float64(n)
		quiet.hash += o.hash / float64(n)
		quiet.chunk += o.chunk / float64(n)
	}
	fit := shareFit{blocks: len(blocks)}
	var sxx, sxy float64
	for _, o := range blocks {
		k, h, y := o.encode/quiet.encode, o.hash/quiet.hash, o.chunk/quiet.chunk
		sxx += (k - h) * (k - h)
		sxy += (k - h) * (y - h)
	}
	fit.share = sxy / sxx
	for _, o := range blocks {
		k, h, y := o.encode/quiet.encode, o.hash/quiet.hash, o.chunk/quiet.chunk
		if k < calibSlow {
			continue
		}
		fit.slow++
		fit.biasEncodeOnly += y / k
		fit.biasFitted += y / (fit.share*k + (1-fit.share)*h)
	}
	if fit.slow == 0 {
		return fit, fmt.Errorf("calibration: no slow episode in %d blocks: the share cannot be fitted from this run", len(blocks))
	}
	fit.biasEncodeOnly /= float64(fit.slow)
	fit.biasFitted /= float64(fit.slow)
	return fit, nil
}
