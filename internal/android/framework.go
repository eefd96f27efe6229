// Package android models the slice of the Android framework that the
// analyses need: the system class hierarchy, component lifecycle tables,
// callback interfaces, asynchronous-execution APIs, ICC (inter-component
// communication) APIs and the security-sensitive sink registry.
//
// The paper's analyses never execute framework code; they only need its
// shape — which classes exist, how they relate, which methods the framework
// implicitly invokes, and which parameters of which APIs are
// security-sensitive. This package is that shape.
package android

import (
	"strings"

	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

// Well-known framework class names.
const (
	ObjectClass   = "java.lang.Object"
	RunnableIface = "java.lang.Runnable"
	CallableIface = "java.util.concurrent.Callable"
	ThreadClass   = "java.lang.Thread"
	ExecutorIface = "java.util.concurrent.Executor"

	ContextClass  = "android.content.Context"
	ActivityClass = "android.app.Activity"
	ServiceClass  = "android.app.Service"
	ReceiverClass = "android.content.BroadcastReceiver"
	ProviderClass = "android.content.ContentProvider"

	IntentClass    = "android.content.Intent"
	BundleClass    = "android.os.Bundle"
	AsyncTaskClass = "android.os.AsyncTask"
	HandlerClass   = "android.os.Handler"
	ViewClass      = "android.view.View"

	OnClickIface       = "android.view.View$OnClickListener"
	DialogOnClickIface = "android.content.DialogInterface$OnClickListener"
	HandlerCbIface     = "android.os.Handler$Callback"

	CipherClass           = "javax.crypto.Cipher"
	SSLSocketFactoryClass = "org.apache.http.conn.ssl.SSLSocketFactory"
	HttpsURLConnClass     = "javax.net.ssl.HttpsURLConnection"
	HostnameVerifierIface = "javax.net.ssl.HostnameVerifier"
	X509VerifierIface     = "org.apache.http.conn.ssl.X509HostnameVerifier"
)

// systemPrefixes are the package prefixes of framework/system code. Classes
// under these prefixes have no bytecode in the app dex.
var systemPrefixes = []string{
	"java.", "javax.", "android.", "androidx.", "dalvik.",
	"org.apache.http.", "org.json.", "org.w3c.", "org.xml.", "junit.",
}

// IsSystemClass reports whether the dotted class name belongs to the
// Android/Java framework rather than the app.
func IsSystemClass(name string) bool {
	for _, p := range systemPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// classInfo is the framework-side hierarchy entry for one system class.
type classInfo struct {
	super  string
	ifaces []string
	iface  bool // the entry itself is an interface
}

// frameworkHierarchy covers the system classes the analyses care about.
// App classes extend these; cha merges this table with the app hierarchy.
var frameworkHierarchy = map[string]classInfo{
	ObjectClass:   {},
	RunnableIface: {iface: true},
	CallableIface: {iface: true},
	ExecutorIface: {iface: true},
	ThreadClass:   {super: ObjectClass, ifaces: []string{RunnableIface}},

	"java.lang.String":                        {super: ObjectClass},
	"java.lang.StringBuilder":                 {super: ObjectClass},
	"java.util.Timer":                         {super: ObjectClass},
	"java.util.TimerTask":                     {super: ObjectClass, ifaces: []string{RunnableIface}},
	"java.util.concurrent.ThreadPoolExecutor": {super: ObjectClass, ifaces: []string{ExecutorIface}},

	ContextClass:                     {super: ObjectClass},
	"android.content.ContextWrapper": {super: ContextClass},
	ActivityClass:                    {super: "android.content.ContextWrapper"},
	ServiceClass:                     {super: "android.content.ContextWrapper"},
	"android.app.IntentService":      {super: ServiceClass},
	ReceiverClass:                    {super: ObjectClass},
	ProviderClass:                    {super: ObjectClass},

	IntentClass:    {super: ObjectClass},
	BundleClass:    {super: ObjectClass},
	AsyncTaskClass: {super: ObjectClass},
	HandlerClass:   {super: ObjectClass},
	ViewClass:      {super: ObjectClass},

	OnClickIface:       {iface: true},
	DialogOnClickIface: {iface: true},
	HandlerCbIface:     {iface: true},

	CipherClass:                      {super: ObjectClass},
	SSLSocketFactoryClass:            {super: ObjectClass},
	"javax.net.ssl.SSLSocketFactory": {super: ObjectClass},
	"java.net.URLConnection":         {super: ObjectClass},
	"java.net.HttpURLConnection":     {super: "java.net.URLConnection"},
	HttpsURLConnClass:                {super: "java.net.HttpURLConnection"},
	HostnameVerifierIface:            {iface: true},
	X509VerifierIface:                {iface: true, ifaces: []string{HostnameVerifierIface}},
}

// FrameworkSuper returns the framework superclass of a system class and
// whether the class is known to the model.
func FrameworkSuper(name string) (string, bool) {
	ci, ok := frameworkHierarchy[name]
	if !ok {
		return "", false
	}
	return ci.super, true
}

// FrameworkInterfaces returns the declared interfaces of a system class.
func FrameworkInterfaces(name string) []string {
	return frameworkHierarchy[name].ifaces
}

// IsFrameworkInterface reports whether the system class is an interface.
func IsFrameworkInterface(name string) bool {
	return frameworkHierarchy[name].iface
}

// componentBases maps component base classes to their manifest kind.
var componentBases = map[string]manifest.ComponentKind{
	ActivityClass:               manifest.Activity,
	ServiceClass:                manifest.Service,
	"android.app.IntentService": manifest.Service,
	ReceiverClass:               manifest.Receiver,
	ProviderClass:               manifest.Provider,
}

// ComponentKindOfBase returns the component kind of a framework base class,
// if it is one.
func ComponentKindOfBase(name string) (manifest.ComponentKind, bool) {
	k, ok := componentBases[name]
	return k, ok
}

// lifecycleMethods lists the framework-invoked lifecycle handlers per
// component kind, in lifecycle order.
var lifecycleMethods = map[manifest.ComponentKind][]string{
	manifest.Activity: {"onCreate", "onStart", "onRestart", "onResume", "onPause", "onStop", "onDestroy"},
	manifest.Service:  {"onCreate", "onStartCommand", "onBind", "onHandleIntent", "onDestroy"},
	manifest.Receiver: {"onReceive"},
	manifest.Provider: {"onCreate", "query", "insert", "update", "delete"},
}

// lifecyclePredecessors is the domain knowledge of paper Sec. IV-E: which
// handler executes before a given handler within the same component. The
// backward slicer uses it to keep tracking state written by an earlier
// handler (e.g. a field set in onCreate and read in onResume).
var lifecyclePredecessors = map[manifest.ComponentKind]map[string][]string{
	manifest.Activity: {
		"onStart":   {"onCreate", "onRestart"},
		"onRestart": {"onStop"},
		"onResume":  {"onStart", "onPause"},
		"onPause":   {"onResume"},
		"onStop":    {"onPause"},
		"onDestroy": {"onStop"},
	},
	manifest.Service: {
		"onStartCommand": {"onCreate"},
		"onBind":         {"onCreate"},
		"onHandleIntent": {"onCreate"},
		"onDestroy":      {"onCreate"},
	},
}

// IsLifecycleMethod reports whether name is a lifecycle handler of the kind.
func IsLifecycleMethod(kind manifest.ComponentKind, name string) bool {
	for _, m := range lifecycleMethods[kind] {
		if m == name {
			return true
		}
	}
	return false
}

// LifecyclePredecessors returns the handlers executed before the given
// handler within the same component kind.
func LifecyclePredecessors(kind manifest.ComponentKind, name string) []string {
	return lifecyclePredecessors[kind][name]
}

// callbackInterfaces maps callback interfaces to the methods the framework
// (or an executor) invokes on them.
var callbackInterfaces = map[string][]string{
	RunnableIface:      {"run"},
	CallableIface:      {"call"},
	OnClickIface:       {"onClick"},
	DialogOnClickIface: {"onClick"},
	HandlerCbIface:     {"handleMessage"},
}

// IsCallbackInterface reports whether the class is a known callback
// interface.
func IsCallbackInterface(name string) bool {
	_, ok := callbackInterfaces[name]
	return ok
}

// CallbackMethods returns the callback method names of the interface.
func CallbackMethods(iface string) []string { return callbackInterfaces[iface] }

// asyncCallbackClasses maps framework classes whose subclasses receive
// framework-driven callbacks to those callback method names. Unlike
// callback interfaces these are class-extension based (AsyncTask, Thread,
// TimerTask).
var asyncCallbackClasses = map[string][]string{
	AsyncTaskClass:        {"doInBackground", "onPostExecute", "onPreExecute"},
	ThreadClass:           {"run"},
	"java.util.TimerTask": {"run"},
}

// AsyncCallbackMethods returns the callback methods implied by extending
// the given framework class.
func AsyncCallbackMethods(class string) []string { return asyncCallbackClasses[class] }

// IsAsyncCallbackClass reports whether extending the class implies
// framework-driven callbacks.
func IsAsyncCallbackClass(name string) bool {
	_, ok := asyncCallbackClasses[name]
	return ok
}

// iccCallNames are the Context/Activity methods that start another
// component by Intent.
var iccCallNames = map[string]manifest.ComponentKind{
	"startActivity":          manifest.Activity,
	"startActivityForResult": manifest.Activity,
	"startService":           manifest.Service,
	"bindService":            manifest.Service,
	"sendBroadcast":          manifest.Receiver,
	"sendOrderedBroadcast":   manifest.Receiver,
}

// ICCTargetKind returns the component kind started by a system ICC call,
// and whether ref is an ICC call at all.
func ICCTargetKind(ref dex.MethodRef) (manifest.ComponentKind, bool) {
	if !IsSystemClass(ref.Class) {
		return 0, false
	}
	k, ok := iccCallNames[ref.Name]
	return k, ok
}

// ICCEntryMethods returns the lifecycle handlers that an ICC delivery
// invokes on the target component kind.
func ICCEntryMethods(kind manifest.ComponentKind) []string {
	switch kind {
	case manifest.Activity:
		return []string{"onCreate"}
	case manifest.Service:
		return []string{"onCreate", "onStartCommand", "onHandleIntent"}
	case manifest.Receiver:
		return []string{"onReceive"}
	case manifest.Provider:
		return []string{"onCreate"}
	}
	return nil
}

// Intent construction/mutation APIs recognized by the ICC search.
var (
	// IntentCtorExplicit is Intent(Context, Class<?>).
	IntentCtorExplicit = dex.NewMethodRef(IntentClass, "<init>", dex.Void,
		dex.T(ContextClass), dex.T("java.lang.Class"))
	// IntentCtorImplicit is Intent(String action).
	IntentCtorImplicit = dex.NewMethodRef(IntentClass, "<init>", dex.Void, dex.StringT)
	// IntentSetClassName is Intent.setClassName(Context, String).
	IntentSetClassName = dex.NewMethodRef(IntentClass, "setClassName", dex.T(IntentClass),
		dex.T(ContextClass), dex.StringT)
	// IntentSetAction is Intent.setAction(String).
	IntentSetAction = dex.NewMethodRef(IntentClass, "setAction", dex.T(IntentClass), dex.StringT)
)
