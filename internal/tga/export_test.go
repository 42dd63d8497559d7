package tga

// KeptSets is how many runs' scratch the driver's free list keeps.
const KeptSets = keptRuns
