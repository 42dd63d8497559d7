//go:build poison && !race

package memo

const dropOneIn = 0
