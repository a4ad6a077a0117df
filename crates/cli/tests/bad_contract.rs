//! The `laar` binary on a contract or placement that fails its checks: the
//! command exits 1 with the reason, it does not panic.

use laar_cli::cmd_generate;
use serde_json::Value;
use std::process::Command;

#[test]
fn empty_rate_set_contract_exits_1_with_a_message() {
    let dir = std::env::temp_dir().join(format!("laar-bad-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (app, placement, _) = cmd_generate(8, 3, 1, 1.0).unwrap();
    let Value::Object(mut contract) = serde_json::to_value(&app) else {
        panic!("a contract is an object");
    };
    let Some(Value::Object(mut configs)) = contract.get("configs").cloned() else {
        panic!("a contract has a configuration space");
    };
    configs.insert("rates", serde_json::from_str("[[]]").unwrap());
    configs.insert("probs", serde_json::from_str("[1.0]").unwrap());
    contract.insert("configs", Value::Object(configs));
    let (c, p) = (dir.join("c.json"), dir.join("p.json"));
    std::fs::write(&c, serde_json::to_string(&Value::Object(contract)).unwrap()).unwrap();
    std::fs::write(&p, serde_json::to_string(&placement).unwrap()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_laar"))
        .args(["solve", "--ic", "0.5", "--strategy"])
        .arg(dir.join("s.json"))
        .arg("--contract")
        .arg(&c)
        .arg("--placement")
        .arg(&p)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("empty or invalid rate set"), "{stderr}");
}

#[test]
fn placement_on_an_unknown_host_exits_1_with_a_message() {
    let dir = std::env::temp_dir().join(format!("laar-bad-placement-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (app, placement, _) = cmd_generate(8, 3, 1, 1.0).unwrap();
    let Value::Object(mut p) = serde_json::to_value(&placement) else {
        panic!("a placement is an object");
    };
    let Some(Value::Array(mut assignment)) = p.get("assignment").cloned() else {
        panic!("a placement has an assignment");
    };
    assignment[0] = serde_json::from_str("99").unwrap();
    p.insert("assignment", Value::Array(assignment));
    let (c, pf) = (dir.join("c.json"), dir.join("p.json"));
    std::fs::write(&c, serde_json::to_string(&app).unwrap()).unwrap();
    std::fs::write(&pf, serde_json::to_string(&Value::Object(p)).unwrap()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_laar"))
        .args(["solve", "--ic", "0.5", "--strategy"])
        .arg(dir.join("s.json"))
        .arg("--contract")
        .arg(&c)
        .arg("--placement")
        .arg(&pf)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown host id 99"), "{stderr}");
}
