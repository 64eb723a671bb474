package core

import (
	"time"

	"repro/internal/codec"
)

// transcriptHeader builds the transcript's query-identity frame from
// resolved options (algorithm defaulted). A protocol round's query ID is
// its session ID.
func transcriptHeader(opts *Options, sid uint64, start time.Time, sites, dims int) *codec.TranscriptHeader {
	h := &codec.TranscriptHeader{
		QueryID:        sid,
		Session:        sid,
		Algorithm:      uint8(opts.Algorithm),
		Policy:         uint8(opts.Policy),
		Threshold:      opts.Threshold,
		StartUnixNano:  start.UnixNano(),
		Sites:          int64(sites),
		Dimensionality: int64(dims),
		TopK:           int64(opts.TopK),
		MaxResults:     int64(opts.MaxResults),
	}
	if opts.DisableExpunge {
		h.Flags |= codec.TranscriptFlagDisableExpunge
	}
	if opts.DisableSitePruning {
		h.Flags |= codec.TranscriptFlagDisableSitePruning
	}
	for _, d := range opts.Dims {
		h.Dims = append(h.Dims, int64(d))
	}
	return h
}

// transcriptSummary pins a completed query's outcome into the
// transcript: the exact skyline (IDs and probabilities in the report's
// sorted order), protocol tallies, bandwidth, and the deterministic
// (tuple-count-based) delivery-curve AUC. AUCTime is wall-clock and
// deliberately excluded — it cannot reproduce offline. A failed query
// (nil rep) has no summary.
func transcriptSummary(rep *Report) *codec.TranscriptSummary {
	if rep == nil {
		return nil
	}
	s := &codec.TranscriptSummary{
		Results:      int64(len(rep.Skyline)),
		Iterations:   int64(rep.Iterations),
		Broadcasts:   int64(rep.Broadcasts),
		Expunged:     int64(rep.Expunged),
		Refills:      int64(rep.Refills),
		PrunedLocal:  int64(rep.PrunedLocal),
		TuplesUp:     rep.Bandwidth.TuplesUp,
		TuplesDown:   rep.Bandwidth.TuplesDown,
		Messages:     rep.Bandwidth.Messages,
		Bytes:        rep.Bandwidth.Bytes,
		ElapsedNS:    int64(rep.Elapsed),
		SkylineIDs:   make([]uint64, 0, len(rep.Skyline)),
		SkylineProbs: make([]float64, 0, len(rep.Skyline)),
	}
	if rep.Curve != nil {
		s.AUCBandwidth = rep.Curve.AUCBandwidth
	}
	for _, m := range rep.Skyline {
		s.SkylineIDs = append(s.SkylineIDs, uint64(m.Tuple.ID))
		s.SkylineProbs = append(s.SkylineProbs, m.Prob)
	}
	for _, t := range rep.PerSite {
		s.PerSiteShipped = append(s.PerSiteShipped, t.Shipped)
		s.PerSitePruned = append(s.PerSitePruned, t.Pruned)
	}
	return s
}
