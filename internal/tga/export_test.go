package tga

// KeptSets is how many candidate sets the driver's free list keeps.
const KeptSets = keptSets
