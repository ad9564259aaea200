"""Two-party semi-honest inference engine with dealer preprocessing."""
