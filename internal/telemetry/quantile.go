package telemetry

// HistQuantile estimates the q-quantile (0 ≤ q ≤ 1) of a fixed-bucket
// histogram from its upper bounds and per-bucket counts (the final count is
// the +Inf overflow bucket). The estimate interpolates linearly inside the
// containing bucket, Prometheus-style: the first bucket interpolates from 0,
// and a quantile landing in the overflow bucket clamps to the largest finite
// bound. The second return is false when the histogram is empty (no
// observations), in which case the value is 0.
func HistQuantile(bounds []float64, counts []uint64, q float64) (float64, bool) {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward; clamp to the largest finite bound.
			return bounds[len(bounds)-1], true
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lower + (upper-lower)*frac, true
	}
	// Unreachable: cum == total ≥ rank by the loop's end.
	return bounds[len(bounds)-1], true
}
