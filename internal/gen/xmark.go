package gen

import (
	"fmt"
	"math/rand"

	"xqtp/internal/xdm"
)

// XMarkConfig parameterizes the XMark-like auction document generator. The
// defaults follow the proportions of the XMark benchmark document for the
// subtrees that the paper's queries touch.
type XMarkConfig struct {
	Seed   int64
	People int // number of person elements (scale knob; everything else derives from it)
}

// regions of the XMark site.
var xmarkRegions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

var interests = []string{"sports", "music", "books", "travel", "food", "movies", "art", "science"}

// XMark generates an auction-site document with the XMark element hierarchy:
//
//	site/regions/<region>/item/(location,name,description)
//	site/people/person/(name, emailaddress?, phone?, profile/(interest*, education?), address?)
//	site/open_auctions/open_auction/(initial, bidder*/(date,increase), current, itemref)
//	site/closed_auctions/closed_auction/(seller, buyer, price, date)
//	site/categories/category/(name, description)
func XMark(cfg XMarkConfig) *xdm.Tree {
	if cfg.People <= 0 {
		cfg.People = 255
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nItems := cfg.People * 4
	nOpen := cfg.People / 2
	nClosed := cfg.People / 3
	nCategories := cfg.People / 10
	x := xmarkBuilder{xdm.NewTreeBuilder(0)}

	// An item's region is drawn after its content, so the items are drawn
	// first and emitted region by region.
	type item struct {
		i        int
		location string
		quantity int // 0: none
	}
	byRegion := make([][]item, len(xmarkRegions))
	for i := 0; i < nItems; i++ {
		it := item{i: i, location: pick(rng, "United States", "Germany", "Japan", "Belgium")}
		if rng.Intn(3) == 0 {
			it.quantity = 1 + rng.Intn(5)
		}
		r := rng.Intn(len(xmarkRegions))
		byRegion[r] = append(byRegion[r], it)
	}
	x.open("site")
	x.open("regions")
	for r, name := range xmarkRegions {
		x.open(name)
		for _, it := range byRegion[r] {
			x.open("item")
			x.attr("id", fmt.Sprintf("item%d", it.i))
			x.textEl("location", it.location)
			x.textEl("name", fmt.Sprintf("thing %d", it.i))
			x.textEl("description", "great condition")
			if it.quantity > 0 {
				x.textEl("quantity", fmt.Sprintf("%d", it.quantity))
			}
			x.CloseElement()
		}
		x.CloseElement()
	}
	x.CloseElement()

	x.open("people")
	for i := 0; i < cfg.People; i++ {
		x.open("person")
		x.attr("id", fmt.Sprintf("person%d", i))
		x.textEl("name", fmt.Sprintf("Person %d", i))
		if rng.Intn(10) < 8 { // 80% have an email address, like XMark
			x.textEl("emailaddress", fmt.Sprintf("mailto:p%d@example.com", i))
		}
		if rng.Intn(2) == 0 {
			x.textEl("phone", fmt.Sprintf("+1 555 01%02d", i%100))
		}
		x.open("profile")
		x.attr("income", fmt.Sprintf("%d", 20000+rng.Intn(80000)))
		for k := rng.Intn(4); k > 0; k-- {
			x.open("interest")
			x.attr("category", pick(rng, interests...))
			x.CloseElement()
		}
		if rng.Intn(3) == 0 {
			x.textEl("education", pick(rng, "High School", "College", "Graduate School"))
		}
		x.CloseElement()
		if rng.Intn(2) == 0 {
			x.open("address")
			x.textEl("city", pick(rng, "Antwerp", "Yorktown", "Brussels", "New York"))
			x.textEl("country", pick(rng, "Belgium", "United States"))
			x.CloseElement()
		}
		x.CloseElement()
	}
	x.CloseElement()

	x.open("open_auctions")
	for i := 0; i < nOpen; i++ {
		x.open("open_auction")
		x.attr("id", fmt.Sprintf("open%d", i))
		x.textEl("initial", fmt.Sprintf("%d.00", 5+rng.Intn(100)))
		for k := rng.Intn(5); k > 0; k-- {
			x.open("bidder")
			x.textEl("date", fmt.Sprintf("2006-0%d-1%d", 1+rng.Intn(9), rng.Intn(9)))
			x.textEl("increase", fmt.Sprintf("%d.50", 1+rng.Intn(20)))
			x.CloseElement()
		}
		x.textEl("current", fmt.Sprintf("%d.00", 10+rng.Intn(300)))
		x.open("itemref")
		x.attr("item", fmt.Sprintf("item%d", rng.Intn(nItems)))
		x.CloseElement()
		x.CloseElement()
	}
	x.CloseElement()

	x.open("closed_auctions")
	for i := 0; i < nClosed; i++ {
		x.open("closed_auction")
		x.open("seller")
		x.attr("person", fmt.Sprintf("person%d", rng.Intn(cfg.People)))
		x.CloseElement()
		x.open("buyer")
		x.attr("person", fmt.Sprintf("person%d", rng.Intn(cfg.People)))
		x.CloseElement()
		x.textEl("price", fmt.Sprintf("%d.00", 10+rng.Intn(500)))
		x.textEl("date", fmt.Sprintf("2006-1%d-0%d", rng.Intn(2), 1+rng.Intn(9)))
		x.CloseElement()
	}
	x.CloseElement()

	x.open("categories")
	for i := 0; i < nCategories; i++ {
		x.open("category")
		x.attr("id", fmt.Sprintf("cat%d", i))
		x.textEl("name", pick(rng, interests...))
		x.textEl("description", "all sorts")
		x.CloseElement()
	}
	x.CloseElement()

	x.CloseElement() // site
	return x.Finish()
}

// XMarkRoot returns the root element of XMark(cfg) (see MemberRoot).
func XMarkRoot(cfg XMarkConfig) *xdm.Node { return XMark(cfg).DocElem() }

// xmarkBuilder is a TreeBuilder that takes element and attribute names as
// strings.
type xmarkBuilder struct{ *xdm.TreeBuilder }

func (x xmarkBuilder) open(name string)        { x.OpenElement([]byte(name)) }
func (x xmarkBuilder) attr(name, value string) { x.Attr([]byte(name), value) }

// textEl emits <name>text</name>.
func (x xmarkBuilder) textEl(name, text string) {
	x.open(name)
	x.Text(text)
	x.CloseElement()
}

func pick(rng *rand.Rand, options ...string) string { return options[rng.Intn(len(options))] }
