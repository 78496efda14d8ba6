package classfile

import "fmt"

// Program is a closed world of classes: Hera-JVM resolves the whole
// program at boot (there is no dynamic class loading in this
// reproduction, matching the boot-image + JIT model of the paper).
type Program struct {
	classes []*Class
	byName  map[string]*Class

	// Object is the root class, created automatically.
	Object *Class

	// Resolved state (populated by Resolve).
	resolved    bool
	methods     []*Method // global method table, indexed by Method.ID
	staticSlots int       // total static field slots
	ifaceSlots  int       // global interface-method IDs handed out

	// spare is the one assembly buffer the program lends to its methods'
	// assemblers: Method.Asm takes it, Asm.Build hands it back cleared
	// and Resolve drops it. Bodies are assembled one after another, so
	// one buffer grown to the largest body serves them all; declaring
	// and assembling a program is single-goroutine work, like NewClass.
	spare []BC
}

// NewProgram creates an empty program containing java/lang/Object.
func NewProgram() *Program {
	p := &Program{byName: make(map[string]*Class)}
	p.Object = p.NewClass("java/lang/Object", nil)
	return p
}

// NewClass declares a class with the given superclass (nil means extends
// Object, except for Object itself).
func (p *Program) NewClass(name string, super *Class) *Class {
	if _, dup := p.byName[name]; dup {
		// Builder-API misuse, unreachable because class names are the
		// builders' literals, prefixed per job copy by workloads.BuildMix.
		panic(fmt.Sprintf("classfile: duplicate class %q", name))
	}
	if super == nil && p.Object != nil {
		super = p.Object
	}
	c := &Class{Name: name, Super: super, program: p, Annotations: map[string]string{}}
	p.classes = append(p.classes, c)
	p.byName[name] = c
	return c
}

// NewInterface declares an interface type.
func (p *Program) NewInterface(name string) *Class {
	c := p.NewClass(name, p.Object)
	c.IsInterface = true
	return c
}

// Lookup returns the class with the given name, or nil.
func (p *Program) Lookup(name string) *Class { return p.byName[name] }

// Classes returns all declared classes in declaration order.
func (p *Program) Classes() []*Class { return p.classes }

// Methods returns the global method table (valid after Resolve).
func (p *Program) Methods() []*Method { return p.methods }

// MethodByID returns the method with the given global ID.
func (p *Program) MethodByID(id int) *Method { return p.methods[id] }

// StaticSlots returns the total number of static field slots (valid
// after Resolve).
func (p *Program) StaticSlots() int { return p.staticSlots }

// Resolved reports whether Resolve has completed.
func (p *Program) Resolved() bool { return p.resolved }

// Class is a declared class or interface.
type Class struct {
	Name        string
	Super       *Class
	Interfaces  []*Class
	IsInterface bool
	// Annotations carries class-level placement hints.
	Annotations map[string]string

	Fields  []*Field  // instance fields declared by this class
	Statics []*Field  // static fields declared by this class
	Methods []*Method // methods declared by this class

	program *Program

	// Resolved state.
	ID            int
	InstanceSlots int       // total instance slots including supers
	VTable        []*Method // virtual dispatch table
	ITable        map[int]*Method
}

// NewField declares an instance field.
func (c *Class) NewField(name string, t TypeKind) *Field {
	return c.addField(name, t, false, false)
}

// NewVolatileField declares a volatile instance field.
func (c *Class) NewVolatileField(name string, t TypeKind) *Field {
	return c.addField(name, t, false, true)
}

// NewStaticField declares a static field.
func (c *Class) NewStaticField(name string, t TypeKind) *Field {
	return c.addField(name, t, true, false)
}

// NewVolatileStaticField declares a volatile static field.
func (c *Class) NewVolatileStaticField(name string, t TypeKind) *Field {
	return c.addField(name, t, true, true)
}

func (c *Class) addField(name string, t TypeKind, static, vol bool) *Field {
	if t == Void {
		// Builder-API misuse, unreachable because every field type is a
		// builder's literal, and none is Void.
		panic(fmt.Sprintf("classfile: field %s.%s cannot be void", c.Name, name))
	}
	f := &Field{Name: name, Type: t, Class: c, Static: static, Volatile: vol, Slot: -1}
	if static {
		c.Statics = append(c.Statics, f)
	} else {
		c.Fields = append(c.Fields, f)
	}
	return f
}

// FieldByName finds an instance field by name, searching superclasses.
func (c *Class) FieldByName(name string) *Field {
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// MethodFlags modify a method declaration.
type MethodFlags uint8

const (
	// FlagStatic marks a static method (no receiver).
	FlagStatic MethodFlags = 1 << iota
	// FlagNative marks a method implemented by the runtime (registered by
	// tag with the VM's native registry).
	FlagNative
	// FlagSynchronized wraps the body in the receiver's (or class's)
	// monitor.
	FlagSynchronized
	// FlagAbstract marks a bodyless virtual method.
	FlagAbstract
)

// NewMethod declares a method. Params excludes the receiver.
func (c *Class) NewMethod(name string, flags MethodFlags, ret TypeKind, params ...TypeKind) *Method {
	m := &Method{
		Name:        name,
		Class:       c,
		Flags:       flags,
		Ret:         ret,
		Params:      params,
		ID:          -1,
		VSlot:       -1,
		IfaceID:     -1,
		Annotations: map[string]bool{},
	}
	c.Methods = append(c.Methods, m)
	return m
}

// MethodByName finds a declared method by name (first match), searching
// superclasses. Overload resolution is by name + param count.
func (c *Class) MethodByName(name string) *Method {
	for k := c; k != nil; k = k.Super {
		for _, m := range k.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

// AddInterface records that the class implements an interface.
func (c *Class) AddInterface(i *Class) {
	if !i.IsInterface {
		// Builder-API misuse, unreachable because builders pass only
		// classes they declared with NewInterface.
		panic(fmt.Sprintf("classfile: %s is not an interface", i.Name))
	}
	c.Interfaces = append(c.Interfaces, i)
}

// IsSubclassOf reports whether c is k or a subtype of k (valid after
// Resolve for interfaces; the class chain works at any time).
func (c *Class) IsSubclassOf(k *Class) bool {
	if k.IsInterface {
		for x := c; x != nil; x = x.Super {
			for _, i := range x.Interfaces {
				if i == k || i.IsSubclassOf(k) {
					return true
				}
			}
		}
		return false
	}
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// String returns the class name.
func (c *Class) String() string { return c.Name }

// Field is a declared field.
type Field struct {
	Name     string
	Type     TypeKind
	Class    *Class
	Static   bool
	Volatile bool

	// Slot is the resolved slot index: instance slot (within the object,
	// each 8 bytes) or global static slot.
	Slot int
}

// String returns Class.name.
func (f *Field) String() string { return f.Class.Name + "." + f.Name }

// Method is a declared method.
type Method struct {
	Name   string
	Class  *Class
	Flags  MethodFlags
	Ret    TypeKind
	Params []TypeKind

	// Code is the structured bytecode (nil for native/abstract methods).
	Code []BC
	// Handlers is the exception-handler table, in priority order.
	Handlers []Handler
	// MaxLocals and MaxStack are computed by the assembler.
	MaxLocals int
	MaxStack  int

	// Annotations carries the paper's behaviour hints (§3).
	Annotations map[string]bool

	// NativeTag names the runtime implementation for native methods; by
	// default Class.Name + "." + Name.
	NativeTag string

	// Resolved state.
	ID      int // global method ID
	VSlot   int // vtable slot for virtual methods, else -1
	IfaceID int // global interface-method ID for interface methods, else -1
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags&FlagStatic != 0 }

// IsNative reports whether the method is native.
func (m *Method) IsNative() bool { return m.Flags&FlagNative != 0 }

// IsSynchronized reports whether the method is synchronized.
func (m *Method) IsSynchronized() bool { return m.Flags&FlagSynchronized != 0 }

// IsAbstract reports whether the method has no body.
func (m *Method) IsAbstract() bool { return m.Flags&FlagAbstract != 0 }

// IsVirtual reports whether the method dispatches through the vtable.
func (m *Method) IsVirtual() bool { return !m.IsStatic() }

// Annotate attaches a behaviour-hint annotation and returns the method
// for chaining.
func (m *Method) Annotate(name string) *Method {
	m.Annotations[name] = true
	return m
}

// ArgSlots returns the number of local slots consumed by the arguments,
// including the receiver for instance methods. (This VM uses one slot per
// value regardless of width.)
func (m *Method) ArgSlots() int {
	n := len(m.Params)
	if !m.IsStatic() {
		n++
	}
	return n
}

// Sig returns a human-readable signature.
func (m *Method) Sig() string {
	s := m.Class.Name + "." + m.Name + "("
	for i, p := range m.Params {
		if i > 0 {
			s += ","
		}
		s += p.String()
	}
	return s + ")" + m.Ret.String()
}

// String returns the signature.
func (m *Method) String() string { return m.Sig() }

// Handler is one exception-table entry: throws from bytecode pcs
// [From, To) whose object is an instance of Type (nil = catch
// everything) transfer control to Target with the operand stack holding
// only the thrown reference.
type Handler struct {
	From, To, Target int
	Type             *Class
}

// sameSignature reports whether two methods match for overriding
// purposes (name + params + return).
func sameSignature(a, b *Method) bool {
	if a.Name != b.Name || a.Ret != b.Ret || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}
