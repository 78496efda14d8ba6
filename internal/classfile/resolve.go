package classfile

import "fmt"

// Resolve closes the program: assigns class IDs (supertypes first),
// instance-field slots, global static slots, vtables, interface tables
// and global method IDs, then checks every method body — all of it for
// structure (wellFormed), what a path reaches for types. It must be
// called exactly once, after all classes are declared and all bodies
// built, and before the program is handed to the VM.
func (p *Program) Resolve() error {
	if p.resolved {
		return fmt.Errorf("classfile: program already resolved")
	}

	p.spare = asmBuffers{} // every body is built; nothing assembles after this

	ordered, err := p.topoOrder()
	if err != nil {
		return err
	}

	for id, c := range ordered {
		c.ID = id
		if err := p.resolveFields(c); err != nil {
			return err
		}
		if err := p.resolveMethods(c); err != nil {
			return err
		}
	}
	// Interface tables need every vtable finished first.
	for _, c := range ordered {
		p.resolveITable(c)
	}

	var v verifier
	for _, m := range p.methods {
		if m.IsNative() || m.IsAbstract() {
			continue
		}
		if m.Code == nil {
			return fmt.Errorf("classfile: %s has no body (Asm not built?)", m.Sig())
		}
		if err := wellFormed(m); err != nil {
			return err
		}
		if err := v.run(m); err != nil {
			return err
		}
		m.MaxStack = v.maxStack
	}

	p.resolved = true
	return nil
}

// topoOrder returns classes with every superclass before its subclasses.
func (p *Program) topoOrder() ([]*Class, error) {
	seen := make(map[*Class]int) // 0 unseen, 1 visiting, 2 done
	var out []*Class
	var visit func(c *Class) error
	visit = func(c *Class) error {
		switch seen[c] {
		case 1:
			return fmt.Errorf("classfile: inheritance cycle at %s", c.Name)
		case 2:
			return nil
		}
		seen[c] = 1
		if c.Super != nil {
			if err := visit(c.Super); err != nil {
				return err
			}
		}
		for _, i := range c.Interfaces {
			if err := visit(i); err != nil {
				return err
			}
		}
		seen[c] = 2
		out = append(out, c)
		return nil
	}
	for _, c := range p.classes {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (p *Program) resolveFields(c *Class) error {
	base := 0
	if c.Super != nil {
		base = c.Super.InstanceSlots
	}
	for i, f := range c.Fields {
		f.Slot = base + i
	}
	c.InstanceSlots = base + len(c.Fields)
	for _, f := range c.Statics {
		f.Slot = p.staticSlots
		p.staticSlots++
	}
	return nil
}

func (p *Program) resolveMethods(c *Class) error {
	// Start from the super's vtable.
	if c.Super != nil {
		c.VTable = append([]*Method(nil), c.Super.VTable...)
	}
	for _, m := range c.Methods {
		m.ID = len(p.methods)
		p.methods = append(p.methods, m)
		if m.IsNative() && m.NativeTag == "" {
			m.NativeTag = c.Name + "." + m.Name
		}
		if !m.IsVirtual() {
			continue
		}
		if c.IsInterface {
			m.IfaceID = p.ifaceSlots
			p.ifaceSlots++
			continue
		}
		// Override or extend the vtable.
		slot := -1
		for s, sm := range c.VTable {
			if sameSignature(sm, m) {
				slot = s
				break
			}
		}
		if slot < 0 {
			slot = len(c.VTable)
			c.VTable = append(c.VTable, nil)
		}
		m.VSlot = slot
		c.VTable[slot] = m
	}
	// Abstract classes may leave nil slots only if declared abstract
	// methods fill them; concrete classes must have full vtables.
	for s, sm := range c.VTable {
		if sm == nil {
			return fmt.Errorf("classfile: %s vtable slot %d empty", c.Name, s)
		}
	}
	return nil
}

func (p *Program) resolveITable(c *Class) {
	if c.IsInterface {
		return
	}
	c.ITable = make(map[int]*Method)
	var collect func(k *Class)
	collect = func(k *Class) {
		if k == nil {
			return
		}
		for _, i := range k.Interfaces {
			for _, im := range i.Methods {
				if im.IfaceID < 0 {
					continue
				}
				if _, have := c.ITable[im.IfaceID]; have {
					continue
				}
				// Find the implementing virtual method in c's vtable.
				for _, vm := range c.VTable {
					if sameSignature(vm, im) {
						c.ITable[im.IfaceID] = vm
						break
					}
				}
			}
			collect(i) // super-interfaces via Interfaces of the interface
		}
		collect(k.Super)
	}
	collect(c)
}
