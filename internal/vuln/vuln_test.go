package vuln

import (
	"strings"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
)

func TestJudgeCryptoECB(t *testing.T) {
	tests := []struct {
		give constprop.Value
		want bool
	}{
		{constprop.Str{S: "AES/ECB/PKCS5Padding"}, true},
		{constprop.Str{S: "AES"}, true},
		{constprop.Str{S: "AES/GCM/NoPadding"}, false},
		{constprop.Num{N: 7}, false},
		{constprop.Unknown{}, false},
	}
	for _, tt := range tests {
		got := Judge(android.RuleCryptoECB, []constprop.Value{tt.give})
		if got != tt.want {
			t.Errorf("Judge(crypto, %v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestJudgeSSLAllowAll(t *testing.T) {
	allowAllToken := constprop.Token{Sig: android.AllowAllVerifierField.SootSignature()}
	allowAllObj := &constprop.Obj{ID: 1, Class: android.AllowAllVerifierClass,
		Fields: map[dex.FieldRef]*constprop.Fact{}}
	otherObj := &constprop.Obj{ID: 2, Class: "com.app.StrictVerifier",
		Fields: map[dex.FieldRef]*constprop.Fact{}}

	if !Judge(android.RuleSSLAllowAll, []constprop.Value{allowAllToken}) {
		t.Error("ALLOW_ALL token must be insecure")
	}
	if !Judge(android.RuleSSLAllowAll, []constprop.Value{allowAllObj}) {
		t.Error("AllowAllHostnameVerifier instance must be insecure")
	}
	if Judge(android.RuleSSLAllowAll, []constprop.Value{otherObj}) {
		t.Error("other verifier must be secure")
	}
	if Judge(android.RuleSSLAllowAll, []constprop.Value{constprop.Str{S: "ALLOW_ALL"}}) {
		t.Error("plain strings are not verifier constants")
	}
}

func TestJudgeAnyValueTriggers(t *testing.T) {
	values := []constprop.Value{
		constprop.Str{S: "AES/CBC/PKCS5Padding"},
		constprop.Str{S: "DES"}, // insecure among secure
	}
	if !Judge(android.RuleCryptoECB, values) {
		t.Error("one insecure possible value suffices")
	}
	if Judge(android.RuleCryptoECB, nil) {
		t.Error("no values -> secure")
	}
}

func TestJudgeUnknownRule(t *testing.T) {
	if Judge(android.RuleKind(0), []constprop.Value{constprop.Str{S: "AES"}}) {
		t.Error("unknown rule must not fire")
	}
}

func TestExplain(t *testing.T) {
	got := Explain(android.RuleCryptoECB, []constprop.Value{constprop.Str{S: "AES/ECB/X"}})
	if !strings.Contains(got, "ECB") {
		t.Errorf("explain = %q", got)
	}
	got = Explain(android.RuleSSLAllowAll, []constprop.Value{
		constprop.Token{Sig: android.AllowAllVerifierField.SootSignature()}})
	if !strings.Contains(got, "allow-all") {
		t.Errorf("explain = %q", got)
	}
	if Explain(android.RuleCryptoECB, []constprop.Value{constprop.Str{S: "AES/CBC/X"}}) != "" {
		t.Error("secure values must not be explained")
	}
}
