package classfile

import (
	"maps"
	"slices"
)

// Stamp declares in p a copy of classes — classes of any program, built
// and not yet resolved — each under the name rename gives it. The copy
// declares the same classes, fields and methods in the same order, so
// it resolves to the IDs, slots and listings that building the classes
// again under the new names would give. It shares what nothing writes
// after Build: each body's Code, each method's Params and the *Switch
// entries of its pool. It gets its own pools, handlers and annotations,
// and its superclasses, interfaces, handler types and pool entries name
// its own class, field or method wherever the original names one of
// classes, and p's of the same name wherever it names another.
func (p *Program) Stamp(classes []*Class, rename func(string) string) {
	copied := make(map[*Class]*Class, len(classes))
	p.classes = slices.Grow(p.classes, len(classes))
	for _, c := range classes {
		k := p.NewClass(rename(c.Name), nil)
		k.IsInterface = c.IsInterface
		k.Methods = make([]*Method, 0, len(c.Methods))
		copied[c] = k
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
	// class is the copy's class where the original names c, and mapped
	// the copy's class, field or method where it names x.
	class := func(c *Class) *Class {
		if k, ok := copied[c]; ok || c == nil {
			return k
		}
		return p.Lookup(c.Name)
	}
	mapped := func(x any) any {
		switch x := x.(type) {
		case *Class:
			return class(x)
		case *Field:
			if x.Static {
				return class(x.Class).Statics[slices.Index(x.Class.Statics, x)]
			}
			return class(x.Class).Fields[slices.Index(x.Class.Fields, x)]
		case *Method:
			return class(x.Class).Methods[slices.Index(x.Class.Methods, x)]
		}
		return x
	}
	for _, c := range classes {
		k := copied[c]
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

// Copy returns a program holding a copy of every class of p, built and
// not yet resolved, as Stamp makes it.
func (p *Program) Copy() *Program {
	q := &Program{byName: make(map[string]*Class, len(p.classes))}
	q.Stamp(p.classes, func(name string) string { return name })
	q.Object = q.Lookup(p.Object.Name)
	return q
}
