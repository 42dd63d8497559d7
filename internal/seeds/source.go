// Package seeds implements the paper's seed-dataset layer (§5): twelve
// collectors model the bias of each real-world source — domain sources see
// web/CDN servers and drag in aliased wildcard records, traceroute sources
// see routers in nearly every AS but with many dead hops, hitlists are
// broad but partly stale, AddrMiner is huge and alias-heavy — plus the
// Dataset type with the set algebra the experiments need.
package seeds

import "fmt"

// Source identifies one of the twelve seed data sources of Table 3.
type Source uint8

const (
	SourceCensys Source = iota
	SourceRapid7
	SourceUmbrella
	SourceMajestic
	SourceTranco
	SourceSecRank
	SourceRadar
	SourceCAIDADNS
	SourceScamper
	SourceRIPEAtlas
	SourceHitlist
	SourceAddrMiner

	sourceCount
)

// AllSources lists every source in Table 3 order.
var AllSources = []Source{
	SourceCensys, SourceRapid7, SourceUmbrella, SourceMajestic,
	SourceTranco, SourceSecRank, SourceRadar, SourceCAIDADNS,
	SourceScamper, SourceRIPEAtlas, SourceHitlist, SourceAddrMiner,
}

// String returns the paper's label.
func (s Source) String() string {
	switch s {
	case SourceCensys:
		return "Censys CT"
	case SourceRapid7:
		return "Rapid7"
	case SourceUmbrella:
		return "Umbrella"
	case SourceMajestic:
		return "Majestic"
	case SourceTranco:
		return "Tranco"
	case SourceSecRank:
		return "SecRank"
	case SourceRadar:
		return "Radar"
	case SourceCAIDADNS:
		return "CAIDA DNS"
	case SourceScamper:
		return "Scamper"
	case SourceRIPEAtlas:
		return "RIPE Atlas"
	case SourceHitlist:
		return "IPv6 Hitlist"
	case SourceAddrMiner:
		return "AddrMiner"
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// Category returns Table 3's population tag: "D" (domains), "R" (routers),
// or "Both" (hitlists).
func (s Source) Category() string {
	switch s {
	case SourceCensys, SourceRapid7, SourceUmbrella, SourceMajestic,
		SourceTranco, SourceSecRank, SourceRadar, SourceCAIDADNS:
		return "D"
	case SourceScamper, SourceRIPEAtlas:
		return "R"
	}
	return "Both"
}
