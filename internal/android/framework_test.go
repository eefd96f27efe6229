package android

import (
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

func TestIsSystemClass(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{"java.lang.String", true},
		{"javax.crypto.Cipher", true},
		{"android.app.Activity", true},
		{"org.apache.http.conn.ssl.SSLSocketFactory", true},
		{"com.example.app.MainActivity", false},
		{"org.apache.commons.Foo", false}, // only org.apache.http is system
		{"androidx.core.app.Helper", true},
	}
	for _, tt := range tests {
		if got := IsSystemClass(tt.give); got != tt.want {
			t.Errorf("IsSystemClass(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestFrameworkHierarchy(t *testing.T) {
	super, ok := FrameworkSuper(ActivityClass)
	if !ok || super != "android.content.ContextWrapper" {
		t.Errorf("FrameworkSuper(Activity) = %q, %v", super, ok)
	}
	if _, ok := FrameworkSuper("com.example.NotSystem"); ok {
		t.Error("unknown class should not resolve")
	}
	ifaces := FrameworkInterfaces(ThreadClass)
	if len(ifaces) != 1 || ifaces[0] != RunnableIface {
		t.Errorf("Thread interfaces = %v", ifaces)
	}
	// HttpsURLConnection walks up to Object through HttpURLConnection.
	s1, _ := FrameworkSuper(HttpsURLConnClass)
	if s1 != "java.net.HttpURLConnection" {
		t.Errorf("HttpsURLConnection super = %q", s1)
	}
}

func TestComponentKindOfBase(t *testing.T) {
	k, ok := ComponentKindOfBase(ServiceClass)
	if !ok || k != manifest.Service {
		t.Errorf("Service base = %v, %v", k, ok)
	}
	if _, ok := ComponentKindOfBase("java.lang.Thread"); ok {
		t.Error("Thread must not be a component base")
	}
	k, ok = ComponentKindOfBase("android.app.IntentService")
	if !ok || k != manifest.Service {
		t.Errorf("IntentService base = %v, %v", k, ok)
	}
}

func TestLifecycleTables(t *testing.T) {
	if !IsLifecycleMethod(manifest.Activity, "onResume") {
		t.Error("onResume should be an Activity lifecycle method")
	}
	if IsLifecycleMethod(manifest.Activity, "doWork") {
		t.Error("doWork should not be a lifecycle method")
	}
	if !IsLifecycleMethod(manifest.Receiver, "onReceive") {
		t.Error("onReceive should be a Receiver lifecycle method")
	}
	preds := LifecyclePredecessors(manifest.Activity, "onResume")
	if len(preds) != 2 || preds[0] != "onStart" {
		t.Errorf("onResume predecessors = %v", preds)
	}
	if LifecyclePredecessors(manifest.Activity, "onCreate") != nil {
		t.Error("onCreate has no predecessors")
	}
}

func TestCallbackRegistry(t *testing.T) {
	ms := CallbackMethods(OnClickIface)
	if len(ms) != 1 || ms[0] != "onClick" {
		t.Errorf("OnClickListener methods = %v", ms)
	}
}

func TestAsyncCallbackClasses(t *testing.T) {
	if !IsAsyncCallbackClass(AsyncTaskClass) || !IsAsyncCallbackClass(ThreadClass) {
		t.Error("AsyncTask/Thread should be async callback classes")
	}
	ms := AsyncCallbackMethods(AsyncTaskClass)
	found := false
	for _, m := range ms {
		if m == "doInBackground" {
			found = true
		}
	}
	if !found {
		t.Errorf("AsyncTask callbacks = %v, want doInBackground", ms)
	}
}

func TestICCTargetKind(t *testing.T) {
	start := dex.NewMethodRef(ContextClass, "startService",
		dex.T("android.content.ComponentName"), dex.T(IntentClass))
	k, ok := ICCTargetKind(start)
	if !ok || k != manifest.Service {
		t.Errorf("startService kind = %v, %v", k, ok)
	}
	appCall := dex.NewMethodRef("com.example.App", "startService", dex.Void, dex.T(IntentClass))
	if _, ok := ICCTargetKind(appCall); ok {
		t.Error("app-defined startService is not a system ICC call")
	}
	other := dex.NewMethodRef(ContextClass, "getSystemService", dex.ObjectT, dex.StringT)
	if _, ok := ICCTargetKind(other); ok {
		t.Error("getSystemService is not an ICC call")
	}
}

func TestICCEntryMethods(t *testing.T) {
	if ms := ICCEntryMethods(manifest.Service); len(ms) == 0 || ms[0] != "onCreate" {
		t.Errorf("Service entry methods = %v", ms)
	}
	if ms := ICCEntryMethods(manifest.Receiver); len(ms) != 1 || ms[0] != "onReceive" {
		t.Errorf("Receiver entry methods = %v", ms)
	}
}

func TestDefaultSinks(t *testing.T) {
	sinks := DefaultSinks()
	if len(sinks) != 3 {
		t.Fatalf("sinks = %d, want 3", len(sinks))
	}
	if sinks[0].Method.DexSignature() != "Ljavax/crypto/Cipher;.getInstance:(Ljava/lang/String;)Ljavax/crypto/Cipher;" {
		t.Errorf("cipher sink sig = %q", sinks[0].Method.DexSignature())
	}
	for _, s := range sinks {
		if s.ParamIndex != 0 {
			t.Errorf("sink %s param = %d", s.Method, s.ParamIndex)
		}
	}
	if sinks[1].Rule != RuleSSLAllowAll || sinks[0].Rule != RuleCryptoECB {
		t.Error("rule assignment wrong")
	}
}

func TestIsInsecureCipherTransformation(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{"AES/ECB/PKCS5Padding", true},
		{"aes/ecb/nopadding", true},
		{"AES", true}, // defaults to ECB
		{"DES", true},
		{"AES/CBC/PKCS5Padding", false},
		{"AES/GCM/NoPadding", false},
		{"RSA", false},
	}
	for _, tt := range tests {
		if got := IsInsecureCipherTransformation(tt.give); got != tt.want {
			t.Errorf("IsInsecureCipherTransformation(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRuleKindString(t *testing.T) {
	if RuleCryptoECB.String() != "crypto-ecb" || RuleSSLAllowAll.String() != "ssl-allow-all" {
		t.Error("rule names wrong")
	}
	if RuleKind(0).String() != "unknown-rule" {
		t.Error("zero rule should be unknown")
	}
}
