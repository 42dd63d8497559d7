package seeds

// SourceMeta documents each seed source as the paper describes it:
// collection dates (Table 7), domain-resolution volumes (Table 8), and the
// paper's measured composition (Table 3). These constants let the
// experiment harness print paper-versus-measured columns without
// hard-coding numbers at call sites.
type SourceMeta struct {
	// Collected is Table 7's collection date (MM-DD-YYYY).
	Collected string
	// Description summarizes what the source is and how it is gathered.
	Description string
	// PaperUnique / PaperDealiased / PaperActive / PaperASes are Table 3's
	// columns for this source in the paper's 2023-2024 collection.
	PaperUnique    int
	PaperDealiased int
	PaperActive    int
	PaperASes      int
	// PaperDomains / PaperAAAA are Table 8's volumes (domain sources only).
	PaperDomains int64
	PaperAAAA    int64
}

// Meta records the paper's per-source facts.
var Meta = map[Source]SourceMeta{
	SourceCensys: {
		Collected:   "12-11-2023",
		Description: "AAAA resolution of domains from Certificate Transparency logs via Censys",
		PaperUnique: 19_446_042, PaperDealiased: 7_482_129, PaperActive: 3_654_876, PaperASes: 13_950,
		PaperDomains: 2_517_952_172, PaperAAAA: 117_503_681,
	},
	SourceRapid7: {
		Collected:   "11-26-2021",
		Description: "Rapid7 Forward DNS archive (2021 snapshot, licensing-frozen) plus archival AAAA lookups",
		PaperUnique: 24_537_629, PaperDealiased: 6_930_413, PaperActive: 2_028_611, PaperASes: 13_840,
		PaperDomains: 1_931_094_237, PaperAAAA: 97_487_730,
	},
	SourceUmbrella: {
		Collected:   "12-01-2023",
		Description: "Cisco Umbrella popularity toplist, AAAA-resolved",
		PaperUnique: 261_717, PaperDealiased: 59_039, PaperActive: 49_927, PaperASes: 2_764,
		PaperDomains: 1_000_000, PaperAAAA: 229_207,
	},
	SourceMajestic: {
		Collected:   "12-12-2023",
		Description: "Majestic Million toplist, AAAA-resolved",
		PaperUnique: 130_751, PaperDealiased: 21_646, PaperActive: 18_519, PaperASes: 1_973,
		PaperDomains: 1_000_000, PaperAAAA: 285_110,
	},
	SourceTranco: {
		Collected:   "11-30-2023",
		Description: "Tranco research toplist, AAAA-resolved",
		PaperUnique: 141_325, PaperDealiased: 24_509, PaperActive: 20_145, PaperASes: 3_321,
		PaperDomains: 1_000_000, PaperAAAA: 278_461,
	},
	SourceSecRank: {
		Collected:   "11-30-2023",
		Description: "SecRank voting-based toplist (China-heavy), AAAA-resolved",
		PaperUnique: 127_963, PaperDealiased: 13_065, PaperActive: 9_909, PaperASes: 1_381,
		PaperDomains: 999_505, PaperAAAA: 113_809,
	},
	SourceRadar: {
		Collected:   "12-04-2023",
		Description: "Cloudflare Radar toplist, AAAA-resolved",
		PaperUnique: 150_319, PaperDealiased: 27_374, PaperActive: 22_516, PaperASes: 3_239,
		PaperDomains: 1_000_011, PaperAAAA: 284_459,
	},
	SourceCAIDADNS: {
		Collected:   "11-30-2023",
		Description: "CAIDA IPv6 DNS Names (router PTR records)",
		PaperUnique: 59_348, PaperDealiased: 56_318, PaperActive: 37_006, PaperASes: 1_800,
		PaperDomains: 1_004_287, PaperAAAA: 57_197,
	},
	SourceScamper: {
		Collected:   "12-07-2023",
		Description: "CAIDA IPv6 Topology traceroutes (Scamper/Ark)",
		PaperUnique: 5_194_955, PaperDealiased: 2_414_558, PaperActive: 492_506, PaperASes: 31_122,
	},
	SourceRIPEAtlas: {
		Collected:   "12-11-2023",
		Description: "RIPE Atlas measurement-network traceroute hops",
		PaperUnique: 2_214_546, PaperDealiased: 2_113_404, PaperActive: 1_278_586, PaperASes: 30_787,
	},
	SourceHitlist: {
		Collected:   "12-06-2023",
		Description: "IPv6 Hitlist service responsive addresses (Gasser et al.)",
		PaperUnique: 9_063_317, PaperDealiased: 8_993_074, PaperActive: 7_619_875, PaperASes: 23_104,
	},
	SourceAddrMiner: {
		Collected:   "12-12-2023",
		Description: "AddrMiner long-term TGA-derived hitlist",
		PaperUnique: 74_348_374, PaperDealiased: 10_378_135, PaperActive: 4_659_058, PaperASes: 20_610,
	},
}
