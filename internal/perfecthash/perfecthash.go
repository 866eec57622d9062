// Package perfecthash implements a CHD ("hash, displace and compress";
// Belazzougui, Botelho and Dietzfelbinger) minimal-space perfect hash for
// static sets of uint64 keys — the paper's perfect-hashing requirement
// (its reference [7] is the FKS scheme this replaces). The oracle uses it
// to index its node-pair set: construction is expected O(n), the table
// stores ≈1.06n slots plus one uint16 displacement per four keys, and a
// lookup is worst-case O(1) with two table probes (see compact.go).
package perfecthash

import "math/bits"

// mix is a strong 64-bit mixer (splitmix64 finalizer) applied before the
// multiply-high reduction, so that structured keys (packed ID pairs)
// spread well.
//
//sealint:hotpath
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash maps key into [0, mod) for the family member identified by mult. The
// key is re-mixed together with the multiplier (a fresh avalanche per family
// member) and reduced with the multiply-high trick, which uses the high bits
// of the product. A plain multiply-shift that keeps only low product bits is
// NOT a safe family here: two keys whose mixed values differ by a multiple
// of 2^(shift+log2(mod)) would collide under every multiplier.
//
//sealint:hotpath
func hash(key, mult uint64, mod int) int {
	if mod <= 1 {
		return 0
	}
	z := mix(key ^ mult)
	hi, _ := bits.Mul64(z, uint64(mod))
	return int(hi)
}
