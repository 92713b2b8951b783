"""Signature volatility models: weighted tensor algebra, Brownian signatures,
stochastic-exponential simulation, Riccati transform flows and GKW hedging."""
