package experiment

// Table 1 of the paper is a literature-survey matrix: which dataset
// construction and preprocessing choices each prior TGA made. It is static
// knowledge, reproduced here so the experiments binary prints the full
// evaluation section.

// PriorWorkRow is one preprocessing dimension of Table 1.
type PriorWorkRow struct {
	Included string
	// Applies maps generator name → whether the row applies (✓ in the
	// paper's table).
	Applies map[string]bool
}

// PriorWorkColumns is Table 1's generator order.
var PriorWorkColumns = []string{"6Sense", "DET", "6Scan", "6Hit", "6Graph", "6Tree", "6Gen", "EIP"}

// PriorWorkMatrix reproduces Table 1 verbatim.
func PriorWorkMatrix() []PriorWorkRow {
	mk := func(names ...string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	return []PriorWorkRow{
		{Included: "All", Applies: mk("6Gen", "EIP")},
		{Included: "No Dealiasing", Applies: mk("6Gen", "EIP")},
		{Included: "Offline Dealiasing", Applies: mk("6Sense", "DET", "6Scan", "6Hit", "6Graph", "6Tree")},
		{Included: "Online Dealiasing", Applies: mk("6Sense")},
		{Included: "Include Inactive", Applies: mk("6Tree", "6Gen", "EIP")},
		{Included: "Only Active", Applies: mk("6Sense", "DET", "6Hit", "6Graph", "6Tree")},
		{Included: "Port Spec.", Applies: mk("6Scan")},
	}
}

// renderPriorWork prints Table 1.
func renderPriorWork() string {
	t := &Table{
		Title:  "Table 1: Dataset construction and preprocessing methods by TGA",
		Header: append([]string{"Included"}, PriorWorkColumns...),
	}
	for _, row := range PriorWorkMatrix() {
		cells := []string{row.Included}
		for _, g := range PriorWorkColumns {
			if row.Applies[g] {
				cells = append(cells, "yes")
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t.String()
}
