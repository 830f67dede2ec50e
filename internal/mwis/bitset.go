package mwis

import "math/bits"

// bitset is a fixed-capacity bit vector over vertex positions. All sets
// inside one exact-solver instance share the same word length.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// andNot stores a &^ mask into dst (dst may alias a).
func (b bitset) andNotInto(mask, dst bitset) {
	for i := range b {
		dst[i] = b[i] &^ mask[i]
	}
}

// nextIn returns the first set bit in [lo, hi), or -1 if there is none.
func (b bitset) nextIn(lo, hi int) int {
	for wi := lo / 64; wi*64 < hi; wi++ {
		word := b[wi]
		if wi == lo/64 {
			word &^= 1<<(uint(lo)%64) - 1
		}
		if word != 0 {
			if i := wi*64 + bits.TrailingZeros64(word); i < hi {
				return i
			}
			return -1
		}
	}
	return -1
}
