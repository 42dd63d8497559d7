//go:build poison && race

package memo

// Under the race detector a poisoned free list drops one Put in four.
const dropOneIn = 4
