//go:build poison

package memo

import "os"

// With the poison tag free lists scribble what they store and lend, and
// SEEDSCAN_RECYCLE=off turns recycling off (FreeList).
const poisoning = true

var recycling = os.Getenv("SEEDSCAN_RECYCLE") != "off"
