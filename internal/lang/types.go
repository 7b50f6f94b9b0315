package lang

import "fmt"

// TypeKind classifies semantic types. Everything occupies whole words; the
// type system exists to resolve field offsets, array element sizes, and
// pointer dereferences — assignments between word-sized values are not
// restricted (the benchmarks are low-level C).
type TypeKind uint8

const (
	KInt TypeKind = iota
	KVoid
	KPtr
	KStruct
)

// Type is a semantic type.
type Type struct {
	Kind TypeKind
	Elem *Type       // KPtr: pointee
	S    *StructType // KStruct
}

// StructType is a resolved record layout.
type StructType struct {
	Name    string
	Fields  []StructField
	ByName  map[string]*StructField
	SizeWds int64
}

// StructField is one field with its word offset.
type StructField struct {
	Name   string
	Type   *Type
	Offset int64
}

var (
	tInt  = &Type{Kind: KInt}
	tVoid = &Type{Kind: KVoid}
)

// PtrTo returns a pointer type.
func PtrTo(elem *Type) *Type { return &Type{Kind: KPtr, Elem: elem} }

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KInt:
		return "int"
	case KVoid:
		return "void"
	case KPtr:
		return t.Elem.String() + "*"
	case KStruct:
		return t.S.Name
	}
	return "?"
}

// SizeWords returns the number of memory words a value of this type
// occupies (pointers and ints are one word; structs are their layout
// size).
func (t *Type) SizeWords() int64 {
	if t.Kind == KStruct {
		return t.S.SizeWds
	}
	return 1
}

// IsWord reports whether the type fits a register (ints and pointers).
func (t *Type) IsWord() bool { return t.Kind == KInt || t.Kind == KPtr }

// resolveType turns a syntactic TypeExpr into a semantic Type using the
// struct table.
func resolveType(x TypeExpr, structs map[string]*StructType) (*Type, error) {
	var base *Type
	switch x.Base {
	case "int":
		base = tInt
	case "void":
		base = tVoid
	default:
		st, ok := structs[x.Base]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown type %q", x.Line, x.Base)
		}
		base = &Type{Kind: KStruct, S: st}
	}
	for i := 0; i < x.Ptrs; i++ {
		base = PtrTo(base)
	}
	if base.Kind == KVoid && x.Ptrs > 0 {
		// void* is a generic word pointer: model as int*.
		base = PtrTo(tInt)
	}
	return base, nil
}

// layoutStructs resolves all struct declarations, allowing pointer fields
// to reference any struct (including forward and self references) but
// rejecting directly recursive value fields.
func layoutStructs(decls []*StructDecl) (map[string]*StructType, error) {
	structs := make(map[string]*StructType, len(decls))
	for _, d := range decls {
		if _, dup := structs[d.Name]; dup {
			return nil, fmt.Errorf("line %d: duplicate struct %q", d.Line, d.Name)
		}
		structs[d.Name] = &StructType{Name: d.Name, ByName: map[string]*StructField{}}
	}
	// Layout in declaration order; a value field of a later struct is only
	// legal if that struct is already laid out.
	laid := make(map[string]bool)
	for _, d := range decls {
		st := structs[d.Name]
		off := int64(0)
		for _, f := range d.Fields {
			ft, err := resolveType(f.TypeX, structs)
			if err != nil {
				return nil, err
			}
			if ft.Kind == KStruct && !laid[ft.S.Name] {
				return nil, fmt.Errorf("line %d: struct %s embeds %s by value before its layout is known (use a pointer)", f.Line, d.Name, ft.S.Name)
			}
			if ft.Kind == KVoid {
				return nil, fmt.Errorf("line %d: field %s.%s has void type", f.Line, d.Name, f.Name)
			}
			if _, dup := st.ByName[f.Name]; dup {
				return nil, fmt.Errorf("line %d: duplicate field %s.%s", f.Line, d.Name, f.Name)
			}
			sf := StructField{Name: f.Name, Type: ft, Offset: off}
			st.Fields = append(st.Fields, sf)
			st.ByName[f.Name] = &st.Fields[len(st.Fields)-1]
			off += ft.SizeWords()
		}
		st.SizeWds = off
		if off == 0 {
			st.SizeWds = 1 // empty structs still occupy a word
		}
		laid[d.Name] = true
	}
	return structs, nil
}
