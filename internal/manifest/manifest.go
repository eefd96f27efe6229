// Package manifest models the AndroidManifest.xml of an app: the package
// name and the set of declared components with their intent filters.
// Component registration is what makes lifecycle handlers valid entry
// points, so both BackDroid and the whole-app baseline consume this model —
// BackDroid checks registration during its lifecycle and <clinit> searches,
// while the baseline (like Amandroid) derives its entry set from it.
package manifest

import (
	"encoding/xml"
	"fmt"
)

// ComponentKind is one of the four Android component kinds.
type ComponentKind int

// Component kinds.
const (
	Activity ComponentKind = iota + 1
	Service
	Receiver
	Provider
)

var kindNames = map[ComponentKind]string{
	Activity: "activity",
	Service:  "service",
	Receiver: "receiver",
	Provider: "provider",
}

// String returns the manifest tag name of the kind.
func (k ComponentKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("component(%d)", int(k))
}

// IntentFilter is a declared intent filter.
type IntentFilter struct {
	Actions    []string `xml:"action"`
	Categories []string `xml:"category"`
}

// Component is one registered component.
type Component struct {
	Kind     ComponentKind  `xml:"-"`
	Name     string         `xml:"name,attr"` // dotted class name
	Exported bool           `xml:"exported,attr"`
	Filters  []IntentFilter `xml:"intent-filter"`
}

// HandlesAction reports whether any intent filter declares the action.
func (c *Component) HandlesAction(action string) bool {
	for _, f := range c.Filters {
		for _, a := range f.Actions {
			if a == action {
				return true
			}
		}
	}
	return false
}

// Manifest is the app manifest.
type Manifest struct {
	Package    string
	Components []Component
}

// New returns an empty manifest for the given package.
func New(pkg string) *Manifest {
	return &Manifest{Package: pkg}
}

// Add registers a component and returns the manifest for chaining.
func (m *Manifest) Add(kind ComponentKind, name string, filters ...IntentFilter) *Manifest {
	m.Components = append(m.Components, Component{
		Kind:     kind,
		Name:     name,
		Exported: len(filters) > 0,
		Filters:  filters,
	})
	return m
}

// Component returns the registered component with the given class name, or
// nil when the class is not registered. Classes that exist in the dex but
// are absent here are exactly the "unregistered component" false-positive
// source the paper diagnoses in Amandroid (Sec. VI-C).
func (m *Manifest) Component(name string) *Component {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// IsRegistered reports whether the class name is a registered component.
func (m *Manifest) IsRegistered(name string) bool { return m.Component(name) != nil }

// ComponentsOfKind returns all components of one kind.
func (m *Manifest) ComponentsOfKind(kind ComponentKind) []Component {
	var out []Component
	for _, c := range m.Components {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// ComponentForAction returns the first component whose intent filters
// declare the action, or nil. Used to resolve implicit ICC.
func (m *Manifest) ComponentForAction(action string) *Component {
	for i := range m.Components {
		if m.Components[i].HandlesAction(action) {
			return &m.Components[i]
		}
	}
	return nil
}

// xmlManifest is the XML serialization shape.
type xmlManifest struct {
	XMLName     xml.Name       `xml:"manifest"`
	Package     string         `xml:"package,attr"`
	Application xmlApplication `xml:"application"`
}

type xmlApplication struct {
	Activities []xmlComponent `xml:"activity"`
	Services   []xmlComponent `xml:"service"`
	Receivers  []xmlComponent `xml:"receiver"`
	Providers  []xmlComponent `xml:"provider"`
}

type xmlComponent struct {
	Name     string            `xml:"name,attr"`
	Exported bool              `xml:"exported,attr"`
	Filters  []xmlIntentFilter `xml:"intent-filter"`
}

type xmlIntentFilter struct {
	Actions    []xmlNamed `xml:"action"`
	Categories []xmlNamed `xml:"category"`
}

type xmlNamed struct {
	Name string `xml:"name,attr"`
}

// ToXML serializes the manifest into AndroidManifest.xml form.
func (m *Manifest) ToXML() ([]byte, error) {
	xm := xmlManifest{Package: m.Package}
	for _, c := range m.Components {
		xc := xmlComponent{Name: c.Name, Exported: c.Exported}
		for _, f := range c.Filters {
			var xf xmlIntentFilter
			for _, a := range f.Actions {
				xf.Actions = append(xf.Actions, xmlNamed{Name: a})
			}
			for _, cat := range f.Categories {
				xf.Categories = append(xf.Categories, xmlNamed{Name: cat})
			}
			xc.Filters = append(xc.Filters, xf)
		}
		switch c.Kind {
		case Activity:
			xm.Application.Activities = append(xm.Application.Activities, xc)
		case Service:
			xm.Application.Services = append(xm.Application.Services, xc)
		case Receiver:
			xm.Application.Receivers = append(xm.Application.Receivers, xc)
		case Provider:
			xm.Application.Providers = append(xm.Application.Providers, xc)
		default:
			return nil, fmt.Errorf("manifest: unknown component kind %v", c.Kind)
		}
	}
	return xml.MarshalIndent(xm, "", "  ")
}

// ParseXML parses AndroidManifest.xml bytes.
func ParseXML(data []byte) (*Manifest, error) {
	var xm xmlManifest
	if err := xml.Unmarshal(data, &xm); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m := New(xm.Package)
	appendAll := func(kind ComponentKind, comps []xmlComponent) {
		for _, xc := range comps {
			c := Component{Kind: kind, Name: xc.Name, Exported: xc.Exported}
			for _, xf := range xc.Filters {
				var f IntentFilter
				for _, a := range xf.Actions {
					f.Actions = append(f.Actions, a.Name)
				}
				for _, cat := range xf.Categories {
					f.Categories = append(f.Categories, cat.Name)
				}
				c.Filters = append(c.Filters, f)
			}
			m.Components = append(m.Components, c)
		}
	}
	appendAll(Activity, xm.Application.Activities)
	appendAll(Service, xm.Application.Services)
	appendAll(Receiver, xm.Application.Receivers)
	appendAll(Provider, xm.Application.Providers)
	return m, nil
}
