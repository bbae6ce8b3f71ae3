package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"xmatch/internal/schema"
	"xmatch/internal/xmltree"
)

// contactNames populate contact-name leaves so PTQ answers are readable,
// echoing the paper's running example.
var contactNames = []string{"Alice", "Bob", "Cathy", "Dave", "Erin", "Frank", "Grace", "Heidi"}

var cities = []string{"Hong Kong", "Leipzig", "Paris", "Osaka", "Toronto", "Lagos"}

// OrderDocument generates a document conforming to the dataset's source
// schema with approximately targetNodes element nodes, mirroring the
// paper's Order.xml (3473 nodes): the schema is instantiated once, then the
// line-item subtree is repeated until the node budget is met. Leaf values
// are filled deterministically from the seed so value predicates have
// matches.
func (d *Dataset) OrderDocument(targetNodes int, seed int64) *xmltree.Document {
	return xmltree.New(d.orderTree(targetNodes, seed))
}

// OrderCorpus generates the members of a sharded Order-family collection:
// shards documents built like OrderDocument, totalling approximately
// totalNodes element nodes, each member numbered at a disjoint ascending
// interval base with 4x headroom over its own span. The layout makes the
// members concatenable (xmltree.Corpus) and leaves each member room to
// grow about fourfold under mutation before its whole-document renumber
// could reach the next member's range. Per-member seeds derive
// deterministically from seed, so the corpus is reproducible node for node
// — the determinism test in this package regenerates and compares.
func (d *Dataset) OrderCorpus(shards, totalNodes int, seed int64) []*xmltree.Document {
	if shards < 1 {
		shards = 1
	}
	per := totalNodes / shards
	members := make([]*xmltree.Document, shards)
	base := 0
	for i := 0; i < shards; i++ {
		target := per
		if i == 0 {
			target += totalNodes % shards
		}
		m := xmltree.NewAt(d.orderTree(target, seed+int64(i)*1000003), base)
		members[i] = m
		span := m.MaxEnd() - base
		base += 4 * span
	}
	return members
}

// orderTree builds the node tree of one OrderDocument instance.
func (d *Dataset) orderTree(targetNodes int, seed int64) *xmltree.Node {
	rng := rand.New(rand.NewSource(seed))
	lineElem := d.src.primaries["line"]

	valueFor := func(e *schema.Element, ordinal int) string {
		switch d.src.concept[e] {
		case "buyer.contact.name", "deliver.contact.name", "seller.contact.name", "invoice.contact.name":
			return contactNames[rng.Intn(len(contactNames))]
		case "buyer.contact.email", "deliver.contact.email":
			name := contactNames[rng.Intn(len(contactNames))]
			return strings.ToLower(name) + "@example.com"
		case "deliver.addr.city", "invoice.addr.city":
			return cities[rng.Intn(len(cities))]
		case "deliver.addr.street", "invoice.addr.street":
			return fmt.Sprintf("%d Main St", 1+rng.Intn(200))
		case "line.num":
			return fmt.Sprintf("%d", ordinal)
		case "line.qty", "total.qty":
			return fmt.Sprintf("%d", 1+rng.Intn(50))
		case "line.price.up":
			return fmt.Sprintf("%d.%02d", 1+rng.Intn(900), rng.Intn(100))
		case "line.bpid", "line.spid":
			return fmt.Sprintf("P-%04d", rng.Intn(10000))
		case "hdr.num":
			return fmt.Sprintf("PO-%06d", rng.Intn(1000000))
		case "hdr.date", "line.date":
			return fmt.Sprintf("2009-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
		default:
			return fmt.Sprintf("v%d", rng.Intn(100))
		}
	}

	var lineSubtreeSize int
	if lineElem != nil {
		lineSubtreeSize = lineElem.SubtreeSize()
	}

	// instantiate builds one instance of the subtree rooted at e,
	// repeating the line-item element reps times.
	var instantiate func(e *schema.Element, ordinal int) *xmltree.Node
	instantiate = func(e *schema.Element, ordinal int) *xmltree.Node {
		n := xmltree.NewRoot(e.Name)
		if e.IsLeaf() {
			n.Text = valueFor(e, ordinal)
			return n
		}
		for _, c := range e.Children {
			reps := 1
			if c == lineElem {
				// Repeat line items to reach the node budget.
				base := d.Source.Len() // one instance of everything
				if lineSubtreeSize > 0 && targetNodes > base {
					reps = 1 + (targetNodes-base)/lineSubtreeSize
				}
			}
			for r := 0; r < reps; r++ {
				n.Children = append(n.Children, instantiate(c, r+1))
			}
		}
		return n
	}
	return instantiate(d.Source.Root, 1)
}

// Query is one row of Table III.
type Query struct {
	ID   string
	Text string
}

// Queries returns the ten PTQ workload queries of Table III, normalized to
// this package's twig syntax (predicates start with '.', the paper's
// "LineNO" typo is corrected, and BPID/UP abbreviations are kept as element
// names of the Apertum-like target schema). They are posed against dataset
// D7's target schema.
func Queries() []Query {
	return []Query{
		{"Q1", "Order/DeliverTo/Address[./City][./Country]/Street"},
		{"Q2", "Order/DeliverTo/Contact/EMail"},
		{"Q3", "Order/DeliverTo[./Address/City]/Contact/EMail"},
		{"Q4", "Order/POLine[./LineNo]//UP"},
		{"Q5", "Order/POLine[./LineNo][.//UP]/Quantity"},
		{"Q6", "Order/POLine[./BPID][./LineNo][.//UP]/Quantity"},
		{"Q7", "Order[./DeliverTo//Street]/POLine[.//BPID][.//UP]/Quantity"},
		{"Q8", "Order[./DeliverTo[.//EMail]//Street]/POLine[.//UP]/Quantity"},
		{"Q9", "Order[./Buyer/Contact]/POLine[.//BPID]/Quantity"},
		{"Q10", "Order[./Buyer/Contact][./DeliverTo//City]//BPID"},
	}
}
