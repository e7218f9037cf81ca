package analysis

import (
	"testing"
	"testing/quick"

	"wlan80211/internal/phy"
)

// TestTable2Values pins the paper's Table 2 exactly.
func TestTable2Values(t *testing.T) {
	if DelayDIFS != 50 || DelaySIFS != 10 || DelayRTS != 352 ||
		DelayCTS != 304 || DelayACK != 304 || DelayBeacon != 304 ||
		DelayBO != 0 || DelayPLCP != 192 {
		t.Error("Table 2 constants drifted")
	}
}

func TestDataDelayFormula(t *testing.T) {
	// DDATA = 192 + 8*(34+size)/rate.
	cases := []struct {
		size int
		r    phy.Rate
		want phy.Micros
	}{
		{1000, phy.Rate1Mbps, 192 + 8*1034},          // 8464
		{1000, phy.Rate2Mbps, 192 + 8*1034/2},        // 4328
		{1466, phy.Rate11Mbps, 192 + (8*1500+10)/11}, // ceil(12000/11)=1091
		{0, phy.Rate1Mbps, 192 + 8*34},
	}
	for _, c := range cases {
		if got := DataDelay(c.size, c.r); got != c.want {
			t.Errorf("DataDelay(%d, %v) = %d, want %d", c.size, c.r, got, c.want)
		}
	}
	if DataDelay(-10, phy.Rate1Mbps) != DataDelay(0, phy.Rate1Mbps) {
		t.Error("negative size must clamp")
	}
	if DataDelay(100, phy.Rate(0)) != DelayPLCP {
		t.Error("invalid rate must degrade to PLCP only")
	}
}

func TestCBTEquations(t *testing.T) {
	// Equation 2: DIFS + DDATA.
	if got := CBTData(500, phy.Rate11Mbps); got != 50+DataDelay(500, phy.Rate11Mbps) {
		t.Errorf("CBTData = %d", got)
	}
	// Equations 3–6.
	if CBTRTS() != 352 {
		t.Errorf("CBTRTS = %d", CBTRTS())
	}
	if CBTCTS() != 10+304 {
		t.Errorf("CBTCTS = %d", CBTCTS())
	}
	if CBTACK() != 10+304 {
		t.Errorf("CBTACK = %d", CBTACK())
	}
	if CBTBeacon() != 50+304 {
		t.Errorf("CBTBeacon = %d", CBTBeacon())
	}
}

func TestUtilizationPercent(t *testing.T) {
	cases := []struct {
		cbt  phy.Micros
		want int
	}{
		{0, 0}, {500_000, 50}, {1_000_000, 100}, {1_500_000, 100},
		{-5, 0}, {839_999, 83}, {840_000, 84},
	}
	for _, c := range cases {
		if got := UtilizationPercent(c.cbt); got != c.want {
			t.Errorf("UtilizationPercent(%d) = %d, want %d", c.cbt, got, c.want)
		}
	}
}

// Property: CBT of data frames is monotone in size and antitone in
// rate, the two facts Sec 5.1 derives from Table 2.
func TestCBTMonotonicity(t *testing.T) {
	f := func(n uint16) bool {
		s := int(n % 2000)
		if CBTData(s, phy.Rate1Mbps) < CBTData(s, phy.Rate11Mbps) {
			return false
		}
		return CBTData(s+1, phy.Rate11Mbps) >= CBTData(s, phy.Rate11Mbps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeClassOf(t *testing.T) {
	cases := []struct {
		n    int
		want SizeClass
	}{{0, SizeS}, {400, SizeS}, {401, SizeM}, {800, SizeM}, {801, SizeL}, {1200, SizeL}, {1201, SizeXL}, {3000, SizeXL}}
	for _, c := range cases {
		if got := SizeClassOf(c.n); got != c.want {
			t.Errorf("SizeClassOf(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSizeClassString(t *testing.T) {
	want := []string{"S", "M", "L", "XL"}
	for i, w := range want {
		if got := SizeClass(i).String(); got != w {
			t.Errorf("String(%d) = %q", i, got)
		}
	}
	if SizeClass(9).String() == "" {
		t.Error("unknown class must still format")
	}
}

func TestCategoryNaming(t *testing.T) {
	c := CategoryOf(300, phy.Rate11Mbps)
	if c.String() != "S-11" {
		t.Errorf("got %q, want S-11", c.String())
	}
	c = CategoryOf(1400, phy.Rate1Mbps)
	if c.String() != "XL-1" {
		t.Errorf("got %q, want XL-1", c.String())
	}
	c = CategoryOf(600, phy.Rate5_5Mbps)
	if c.String() != "M-5.5" {
		t.Errorf("got %q, want M-5.5", c.String())
	}
	bad := Category{Size: SizeS, Rate: phy.Rate(7)}
	if bad.String() != "S-?" {
		t.Errorf("invalid rate category = %q", bad.String())
	}
}

func TestCategoryIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range AllCategories() {
		i, ok := c.Index()
		if !ok {
			t.Fatalf("category %v has no index", c)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
		if back := CategoryFromIndex(i); back != c {
			t.Errorf("round trip %v → %d → %v", c, i, back)
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d categories, want 16", len(seen))
	}
	if _, ok := (Category{Rate: phy.Rate(3)}).Index(); ok {
		t.Error("invalid rate must have no index")
	}
}

func TestClassifier(t *testing.T) {
	c := PaperClassifier()
	cases := []struct {
		u    int
		want Class
	}{{0, Uncongested}, {29, Uncongested}, {30, Moderate}, {84, Moderate}, {85, High}, {100, High}}
	for _, tc := range cases {
		if got := c.Classify(tc.u); got != tc.want {
			t.Errorf("Classify(%d) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Uncongested.String() != "uncongested" ||
		Moderate.String() != "moderately congested" ||
		High.String() != "highly congested" {
		t.Error("class names drifted")
	}
	if Class(9).String() == "" {
		t.Error("unknown class must format")
	}
}
