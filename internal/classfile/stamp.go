package classfile

import (
	"maps"
	"slices"
)

// Stamp declares a copy of classes — classes of this program, built and
// not yet resolved — each under the name rename gives it. The copy
// declares the same classes, fields and methods in the same order, so
// it resolves to the IDs, slots and listings that building the classes
// again under the new names would give. It shares what nothing writes
// after Build: each body's Code, each method's Params and the *Switch
// entries of its pool. It gets its own pools, handlers and annotations,
// and its superclasses, interfaces, handler types and pool entries name
// the copy's own class, field or method wherever the original names one
// of classes; names outside classes are kept.
func (p *Program) Stamp(classes []*Class, rename func(string) string) {
	copies := make([]*Class, len(classes))
	for i, c := range classes {
		k := p.NewClass(rename(c.Name), c.Super)
		k.IsInterface = c.IsInterface
		copies[i] = k
		for _, f := range c.Fields {
			k.addField(f.Name, f.Type, false, f.Volatile)
		}
		for _, f := range c.Statics {
			k.addField(f.Name, f.Type, true, f.Volatile)
		}
		for _, m := range c.Methods {
			n := k.NewMethod(m.Name, m.Flags, m.Ret, m.Params...)
			n.Code, n.MaxLocals, n.NativeTag = m.Code, m.MaxLocals, m.NativeTag
			n.Annotations = maps.Clone(m.Annotations)
		}
	}
	// mapped is the copy's own class, field or method standing where x
	// stands in one of classes, or x itself when x is none of theirs.
	mapped := func(x any) any {
		switch x := x.(type) {
		case *Class:
			if i := slices.Index(classes, x); i >= 0 {
				return copies[i]
			}
		case *Field:
			if i := slices.Index(classes, x.Class); i >= 0 {
				if x.Static {
					return copies[i].Statics[slices.Index(x.Class.Statics, x)]
				}
				return copies[i].Fields[slices.Index(x.Class.Fields, x)]
			}
		case *Method:
			if i := slices.Index(classes, x.Class); i >= 0 {
				return copies[i].Methods[slices.Index(x.Class.Methods, x)]
			}
		}
		return x
	}
	class := func(c *Class) *Class { return mapped(c).(*Class) }
	for ci, c := range classes {
		k := copies[ci]
		k.Super = class(c.Super)
		for _, i := range c.Interfaces {
			k.Interfaces = append(k.Interfaces, class(i))
		}
		for j, m := range c.Methods {
			n := k.Methods[j]
			if m.Pool != nil {
				n.Pool = make([]any, len(m.Pool))
				for i, e := range m.Pool {
					n.Pool[i] = mapped(e)
				}
			}
			if m.Handlers != nil {
				n.Handlers = make([]Handler, len(m.Handlers))
				for i, h := range m.Handlers {
					h.Type = class(h.Type)
					n.Handlers[i] = h
				}
			}
		}
	}
}
