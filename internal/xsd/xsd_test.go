package xsd

import (
	"reflect"
	"strings"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/schema"
)

const orderXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Header" type="HeaderType"/>
        <xs:element ref="Line" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="Line">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Qty" type="xs:integer"/>
        <xs:element name="Price" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="HeaderType">
    <xs:sequence>
      <xs:element name="Number" type="xs:string"/>
      <xs:element name="Date" type="xs:date"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>`

func TestParseBasic(t *testing.T) {
	s, err := ParseString("Order", orderXSD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Order", "Order.Header", "Order.Header.Date", "Order.Header.Number",
		"Order.Line", "Order.Line.Price", "Order.Line.Qty",
	}
	if !reflect.DeepEqual(s.Paths(), want) {
		t.Fatalf("paths = %v, want %v", s.Paths(), want)
	}
	if !s.ByPath("Order.Line.Qty").IsLeaf() {
		t.Fatal("Qty should be a leaf (simple type)")
	}
}

func TestParseRootSelection(t *testing.T) {
	s, err := ParseString("L", orderXSD, Options{Root: "Line"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Root.Name != "Line" || s.Len() != 3 {
		t.Fatalf("root = %s, len = %d", s.Root.Name, s.Len())
	}
	if _, err := ParseString("X", orderXSD, Options{Root: "Missing"}); err == nil {
		t.Fatal("unknown root accepted")
	}
}

func TestParseChoiceAndNestedCompositors(t *testing.T) {
	const src = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="R">
    <xs:complexType>
      <xs:choice>
        <xs:element name="A" type="xs:string"/>
        <xs:sequence>
          <xs:element name="B" type="xs:string"/>
        </xs:sequence>
        <xs:choice>
          <xs:element name="C" type="xs:string"/>
        </xs:choice>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	s, err := ParseString("R", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"R", "R.A", "R.B", "R.C"}
	if !reflect.DeepEqual(s.Paths(), want) {
		t.Fatalf("paths = %v, want %v", s.Paths(), want)
	}
}

func TestParseRecursionCutOff(t *testing.T) {
	const src = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Part" type="PartType"/>
  <xs:complexType name="PartType">
    <xs:sequence>
      <xs:element name="SubPart" type="PartType"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>`
	s, err := ParseString("P", src, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	height := 0
	for _, p := range s.Paths() {
		height = max(height, strings.Count(p, "."))
	}
	if height != 4 {
		t.Fatalf("height = %d, want cut-off at 4", height)
	}
}

func TestParseDuplicateChildrenCollapse(t *testing.T) {
	const src = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="R">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="A" type="xs:string"/>
        <xs:element name="A" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	s, err := ParseString("R", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("duplicate siblings should collapse: len = %d", s.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not xml at all <`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
		   <xs:element name="R"><xs:complexType><xs:sequence>
		     <xs:element ref="Nope"/>
		   </xs:sequence></xs:complexType></xs:element>
		 </xs:schema>`,
	}
	for i, src := range cases {
		if _, err := ParseString("X", src, Options{}); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig, err := schema.ParseSpec("T", `
Order
  Header
    Number
    Date
  DeliverTo
    Address
      Street
      City
  Line
    Qty
`)
	if err != nil {
		t.Fatal(err)
	}
	xsdText := Marshal(orig)
	if !strings.Contains(xsdText, `<xs:element name="Street" type="xs:string"/>`) {
		t.Fatalf("unexpected XSD output:\n%s", xsdText)
	}
	back, err := ParseString("T", xsdText, Options{})
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(orig.Paths(), back.Paths()) {
		t.Fatalf("round trip changed paths:\n%v\n%v", orig.Paths(), back.Paths())
	}
}

func TestDatasetSchemasRoundTripThroughXSD(t *testing.T) {
	// Every Table II schema must survive an XSD export/import cycle,
	// proving the XSD subset covers the shapes the datasets use.
	for _, id := range []string{"D1", "D7"} {
		d := dataset.MustLoad(id)
		for _, s := range []*schema.Schema{d.Source, d.Target} {
			back, err := ParseString(s.Name, Marshal(s), Options{MaxDepth: 64})
			if err != nil {
				t.Fatalf("%s/%s: %v", id, s.Name, err)
			}
			if !reflect.DeepEqual(s.Paths(), back.Paths()) {
				t.Fatalf("%s/%s: paths changed through XSD round trip", id, s.Name)
			}
		}
	}
}
