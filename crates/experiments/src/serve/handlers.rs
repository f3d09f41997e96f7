//! The serve tier's request handler: one parsed request in, one status
//! and JSON body out. The shared front end (`event_loop.rs`) owns the
//! connections and calls [`handle`] from its worker pool; everything
//! session-shaped is delegated to the [`SessionManager`] (and thus to the
//! per-session actor threads), so handlers never touch simulation state
//! directly.

use flexserve_workload::JsonValue;

use super::http::{error_json, route, HttpRequest, Route, ENDPOINT_LIST};
use super::sessions::{ServeError, SessionConfig, SessionManager};

/// Routes and executes one parsed request against the session table.
/// `POST /shutdown` never reaches here: the front end answers it.
pub(crate) fn handle(request: &HttpRequest, manager: &SessionManager) -> (u16, String) {
    let Some(resolved) = route(&request.method, &request.path) else {
        return (
            404,
            error_json(&format!(
                "no {} {}; endpoints: {ENDPOINT_LIST}",
                request.method, request.path
            )),
        );
    };
    match dispatch(resolved, &request.body, manager) {
        Ok(body) => (200, body),
        Err(e) => (status_of(&e), error_json(&e.to_string())),
    }
}

/// Executes a routed request against the session manager; returns the
/// 200-response body.
fn dispatch(route: Route, body: &str, manager: &SessionManager) -> Result<String, ServeError> {
    match route {
        Route::CreateSession => {
            let (name, cfg) = parse_create_body(body)?;
            manager.create(&name, cfg).map(|info| info.render())
        }
        Route::ListSessions => Ok(manager.list().render()),
        Route::Step(name) => manager.step(&name, body).map(|v| v.render()),
        Route::Placement(name) => manager.placement(&name).map(|v| v.render()),
        Route::Metrics(name) => manager.metrics(&name).map(|v| v.render()),
        Route::Checkpoint(name) => manager.checkpoint(&name),
        Route::Events(name) => manager.events(&name, body).map(|v| v.render()),
        Route::DeleteSession(name) => {
            // An optional `{"migrated_to": "<worker>"}` body turns the
            // eviction into a migration hand-off: the session is
            // checkpointed and its tombstone names the destination
            // instead of reading as data loss (docs/CLUSTER.md).
            let migrated_to = parse_delete_body(body)?;
            let stats = match &migrated_to {
                Some(target) => manager.remove_migrated(&name, target)?,
                None => manager.remove(&name)?,
            };
            let mut pairs = vec![
                ("ok".into(), JsonValue::Bool(true)),
                ("name".into(), JsonValue::from(name.as_str())),
                ("rounds_served".into(), JsonValue::from(stats.rounds_served)),
                ("final_t".into(), JsonValue::from(stats.final_t)),
            ];
            if let Some(target) = migrated_to {
                pairs.push(("migrated_to".into(), JsonValue::from(target.as_str())));
            }
            Ok(JsonValue::Obj(pairs).render())
        }
    }
}

/// Parses a `POST /sessions` body:
/// `{"name": "<session>", "args": ["topo=...", "wl=...", ...]}` — the
/// `args` entries use exactly the `flexserve serve` cell/session grammar.
fn parse_create_body(body: &str) -> Result<(String, SessionConfig), ServeError> {
    let v = JsonValue::parse(body.trim()).map_err(ServeError::Bad)?;
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::Bad("create: missing \"name\" string".into()))?
        .to_string();
    let args = match v.get("args") {
        None => Vec::new(),
        Some(args) => args.as_str_array().ok_or_else(|| {
            ServeError::Bad("create: \"args\" must be an array of strings".into())
        })?,
    };
    let cfg = SessionConfig::parse(&args, &name).map_err(ServeError::Bad)?;
    Ok((name, cfg))
}

/// Parses an optional `DELETE /sessions/<name>` body. Empty means a plain
/// eviction; `{"migrated_to": "<worker>"}` marks the removal as a
/// migration hand-off. Anything else is a 400.
fn parse_delete_body(body: &str) -> Result<Option<String>, ServeError> {
    let body = body.trim();
    if body.is_empty() {
        return Ok(None);
    }
    let v = JsonValue::parse(body).map_err(ServeError::Bad)?;
    match v.get("migrated_to") {
        Some(target) => match target.as_str() {
            Some(target) if !target.is_empty() => Ok(Some(target.to_string())),
            _ => Err(ServeError::Bad(
                "delete: \"migrated_to\" must be a non-empty string".into(),
            )),
        },
        None => Err(ServeError::Bad(
            "delete: body must be empty or {\"migrated_to\": \"<worker>\"}".into(),
        )),
    }
}

/// The HTTP status each [`ServeError`] maps to.
fn status_of(e: &ServeError) -> u16 {
    match e {
        ServeError::NotFound(_) => 404,
        ServeError::Conflict(_) => 409,
        ServeError::Capacity(_) => 429,
        ServeError::Bad(_) => 400,
        ServeError::Exhausted => 410,
        ServeError::TooLarge(_) => 413,
        ServeError::Internal(_) => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_body_parses_name_and_args() {
        let (name, cfg) = parse_create_body(
            r#"{"name":"beta","args":["topo=unit-line:8","wl=uniform:req=3","strat=onth","seed=2"]}"#,
        )
        .unwrap();
        assert_eq!(name, "beta");
        assert_eq!(cfg.cell.seeds, vec![2]);
        assert!(cfg
            .checkpoint
            .to_string_lossy()
            .ends_with("checkpoint-beta.json"));

        assert!(matches!(parse_create_body("{}"), Err(ServeError::Bad(_))));
        assert!(matches!(
            parse_create_body(r#"{"name":"x","args":"topo=er:50"}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            parse_create_body(r#"{"name":"x","args":[1]}"#),
            Err(ServeError::Bad(_))
        ));
        // args must still name a full cell
        assert!(matches!(
            parse_create_body(r#"{"name":"x","args":[]}"#),
            Err(ServeError::Bad(_))
        ));
    }

    #[test]
    fn delete_body_is_empty_or_a_migration_marker() {
        assert_eq!(parse_delete_body("").unwrap(), None);
        assert_eq!(parse_delete_body("  \n").unwrap(), None);
        assert_eq!(
            parse_delete_body(r#"{"migrated_to": "10.0.0.2:7777"}"#).unwrap(),
            Some("10.0.0.2:7777".to_string())
        );
        assert!(matches!(
            parse_delete_body(r#"{"migrated_to": ""}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            parse_delete_body(r#"{"migrated_to": 7}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            parse_delete_body(r#"{"nope": true}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            parse_delete_body("not json"),
            Err(ServeError::Bad(_))
        ));
    }

    #[test]
    fn statuses_cover_every_error_kind() {
        assert_eq!(status_of(&ServeError::NotFound("x".into())), 404);
        assert_eq!(status_of(&ServeError::Conflict("x".into())), 409);
        assert_eq!(status_of(&ServeError::Capacity("x".into())), 429);
        assert_eq!(status_of(&ServeError::Bad("x".into())), 400);
        assert_eq!(status_of(&ServeError::Exhausted), 410);
        assert_eq!(status_of(&ServeError::TooLarge("x".into())), 413);
        assert_eq!(status_of(&ServeError::Internal("x".into())), 500);
    }
}
