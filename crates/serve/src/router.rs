//! Method + path matching for the serving API.
//!
//! The API surface is small and fixed, so the router is a closed enum
//! rather than a registration table: every endpoint the daemon answers
//! is visible here in one match, and the compiler checks the handler
//! wiring covers all of them.

/// A matched endpoint, with path parameters extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/jobs` — submit a deck job.
    SubmitJob,
    /// `GET /v1/jobs` — list jobs.
    ListJobs,
    /// `GET /v1/jobs/{id}` — job status/result.
    JobStatus(String),
    /// `GET /v1/jobs/{id}/trace` — chrome trace of a completed job.
    JobTrace(String),
    /// `POST /v1/eval` — one-shot energy/force evaluation.
    Eval,
    /// `GET /v1/models` — loaded model registry.
    Models,
    /// `GET /metrics` — counters + latency histograms.
    Metrics,
    /// `GET /healthz` — liveness.
    Health,
    /// `POST /v1/admin/shutdown` — drain and exit.
    Shutdown,
}

/// Why a request matched nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Path exists but not with this method; carries the allowed methods.
    MethodNotAllowed(&'static str),
    /// No such path.
    NotFound,
}

/// Job ids are generated by the daemon as `job-<n>`; accepting only that
/// shape keeps ids safe to embed in filesystem paths for job state dirs.
fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Resolve a (method, path) pair to a route.
pub fn route(method: &str, path: &str) -> Result<Route, RouteError> {
    let trimmed = if path.len() > 1 {
        path.trim_end_matches('/')
    } else {
        path
    };
    match trimmed {
        "/v1/jobs" => match method {
            "POST" => Ok(Route::SubmitJob),
            "GET" => Ok(Route::ListJobs),
            _ => Err(RouteError::MethodNotAllowed("GET, POST")),
        },
        "/v1/eval" => match method {
            "POST" => Ok(Route::Eval),
            _ => Err(RouteError::MethodNotAllowed("POST")),
        },
        "/v1/models" => match method {
            "GET" => Ok(Route::Models),
            _ => Err(RouteError::MethodNotAllowed("GET")),
        },
        "/metrics" => match method {
            "GET" => Ok(Route::Metrics),
            _ => Err(RouteError::MethodNotAllowed("GET")),
        },
        "/healthz" => match method {
            "GET" => Ok(Route::Health),
            _ => Err(RouteError::MethodNotAllowed("GET")),
        },
        "/v1/admin/shutdown" => match method {
            "POST" => Ok(Route::Shutdown),
            _ => Err(RouteError::MethodNotAllowed("POST")),
        },
        _ => {
            if let Some(rest) = trimmed.strip_prefix("/v1/jobs/") {
                let (id, tail) = match rest.split_once('/') {
                    Some((id, tail)) => (id, Some(tail)),
                    None => (rest, None),
                };
                if !valid_job_id(id) {
                    return Err(RouteError::NotFound);
                }
                return match (method, tail) {
                    ("GET", None) => Ok(Route::JobStatus(id.to_string())),
                    ("GET", Some("trace")) => Ok(Route::JobTrace(id.to_string())),
                    (_, None) | (_, Some("trace")) => Err(RouteError::MethodNotAllowed("GET")),
                    _ => Err(RouteError::NotFound),
                };
            }
            Err(RouteError::NotFound)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fixed_endpoints() {
        assert_eq!(route("POST", "/v1/jobs"), Ok(Route::SubmitJob));
        assert_eq!(route("GET", "/v1/jobs"), Ok(Route::ListJobs));
        assert_eq!(route("POST", "/v1/eval"), Ok(Route::Eval));
        assert_eq!(route("GET", "/v1/models"), Ok(Route::Models));
        assert_eq!(route("GET", "/metrics"), Ok(Route::Metrics));
        assert_eq!(route("GET", "/healthz"), Ok(Route::Health));
        assert_eq!(route("POST", "/v1/admin/shutdown"), Ok(Route::Shutdown));
    }

    #[test]
    fn extracts_job_id_parameters() {
        assert_eq!(
            route("GET", "/v1/jobs/job-17"),
            Ok(Route::JobStatus("job-17".into()))
        );
        assert_eq!(
            route("GET", "/v1/jobs/job-17/trace"),
            Ok(Route::JobTrace("job-17".into()))
        );
        // Trailing slash tolerated.
        assert_eq!(
            route("GET", "/v1/jobs/job-17/"),
            Ok(Route::JobStatus("job-17".into()))
        );
    }

    #[test]
    fn wrong_method_reports_allowed_set() {
        assert_eq!(
            route("DELETE", "/v1/jobs"),
            Err(RouteError::MethodNotAllowed("GET, POST"))
        );
        assert_eq!(
            route("GET", "/v1/eval"),
            Err(RouteError::MethodNotAllowed("POST"))
        );
        assert_eq!(
            route("POST", "/v1/jobs/job-1"),
            Err(RouteError::MethodNotAllowed("GET"))
        );
    }

    #[test]
    fn unknown_paths_and_bad_ids_are_not_found() {
        assert_eq!(route("GET", "/"), Err(RouteError::NotFound));
        assert_eq!(route("GET", "/v2/jobs"), Err(RouteError::NotFound));
        assert_eq!(
            route("GET", "/v1/jobs/job-1/logs"),
            Err(RouteError::NotFound)
        );
        // Path traversal shapes never become ids.
        assert_eq!(
            route("GET", "/v1/jobs/..%2f..%2fetc"),
            Err(RouteError::NotFound)
        );
        assert_eq!(route("GET", "/v1/jobs/a.b"), Err(RouteError::NotFound));
    }
}
