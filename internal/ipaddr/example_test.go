package ipaddr_test

import (
	"fmt"

	"seedscan/internal/ipaddr"
)

func ExampleParse() {
	a, err := ipaddr.Parse("2001:db8::1")
	if err != nil {
		panic(err)
	}
	fmt.Println(a)
	fmt.Println(a.FullHex())
	// Output:
	// 2001:db8::1
	// 20010db8000000000000000000000001
}

func ExampleAddr_Nybble() {
	a := ipaddr.MustParse("2001:db8::ff")
	fmt.Println(a.Nybble(0), a.Nybble(3), a.Nybble(31))
	// Output: 2 1 15
}

func ExamplePrefix_Contains() {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	fmt.Println(p.Contains(ipaddr.MustParse("2001:db8:1234::1")))
	fmt.Println(p.Contains(ipaddr.MustParse("2600::1")))
	// Output:
	// true
	// false
}

func ExampleLPMTable_Lookup() {
	names := []string{"lab", "lab-subnet"}
	t := ipaddr.BuildLPM([]ipaddr.Prefix{
		ipaddr.MustParsePrefix("2001:db8::/32"),
		ipaddr.MustParsePrefix("2001:db8:1::/48"),
	}, []uint32{0, 1}, 0)

	v, _ := t.Lookup(ipaddr.MustParse("2001:db8:1::9"))
	fmt.Println(names[v]) // longest match wins
	v, _ = t.Lookup(ipaddr.MustParse("2001:db8:2::9"))
	fmt.Println(names[v])
	_, ok := t.Lookup(ipaddr.MustParse("2600::1"))
	fmt.Println(ok)
	// Output:
	// lab-subnet
	// lab
	// false
}

func ExampleSet() {
	s := ipaddr.NewSet()
	s.Add(ipaddr.MustParse("::1"))
	s.Add(ipaddr.MustParse("::2"))
	s.Add(ipaddr.MustParse("::1")) // duplicate
	fmt.Println(s.Len())
	// Output: 2
}
