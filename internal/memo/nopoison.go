//go:build !poison

package memo

// Without the poison tag a free list recycles every value it keeps, as
// is; FreeList describes the tag.
const (
	poisoning = false
	recycling = true
	dropOneIn = 0
)
