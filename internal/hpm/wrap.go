package hpm

// 32-bit wraparound arithmetic for the hardware registers. The POWER2
// counters are 32 bits wide and wrap silently — the cycles counter alone
// wraps every ~64 s at 66.7 MHz — so every consumer of consecutive raw
// register reads needs the same correction: interpret the unsigned
// difference modulo 2^32. That is exact provided fewer than 2^32 events
// occurred between the reads (the multipass-sampling contract the daemon
// enforces); a second wrap inside one interval is undetectable from the
// registers alone and can only be caught against an unwrapped 64-bit
// shadow total.

// Wrap32Delta returns the wrap-corrected delta between two consecutive
// reads of one 32-bit counter register, and whether the register wrapped
// between them. The correction assumes at most one wrap: modulo-2^32
// subtraction is exact for any true delta below 2^32 and the result is
// always non-negative by construction.
func Wrap32Delta(before, after uint32) (delta uint64, wrapped bool) {
	return uint64(after - before), after < before
}

// RanBackwards reports whether any extended counter decreased between two
// Counts64 readings. Extended totals never wrap; a decrease means the
// counting state was reset between the reads (daemon restart, node
// reboot) and the interval must be gap-marked instead of differenced.
func RanBackwards(before, after Counts64) bool {
	for m := Mode(0); m < numModes; m++ {
		for e := Event(0); e < NumEvents; e++ {
			if after.Counts[m][e] < before.Counts[m][e] {
				return true
			}
		}
	}
	return false
}
